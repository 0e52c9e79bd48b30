package core

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// This file is the connection-pool layer: one warm multiplexed
// connection per address — a prover's or a verifier daemon's — shared by
// every concurrent audit, health-checked on reuse and redialed on
// failure. The pool sits entirely behind the AuditRunner seam, so
// core.Scheduler is unchanged.

// ErrPoolClosed reports a Get on a closed pool.
var ErrPoolClosed = errors.New("core: connection pool closed")

// ProverPool keeps one warm MuxProverConn per peer address. The
// connection is shared: every Get for an address returns the same one,
// each audit round (to a prover) or audit (to a verifier daemon) riding
// its own stream. Reuse is health-checked — a failed connection is
// closed and replaced by a fresh dial instead of poisoning later audits.
// The pool is safe for concurrent use.
type ProverPool struct {
	// DialTimeout bounds each dial and its handshake (0 = 5s).
	DialTimeout time.Duration
	// Dial, when set, replaces the TCP dial (a simnet stream, say); the
	// handshake then runs on the connection's clock.
	Dial func(addr string) (net.Conn, error)

	mu     sync.Mutex
	addrs  map[string]*poolEntry
	closed bool
	dials  atomic.Int64
}

// poolEntry is one address's connection. Its mutex also covers dialing,
// so concurrent Gets against a cold address wait for the first dial
// instead of stampeding the server.
type poolEntry struct {
	mu   sync.Mutex
	conn *MuxProverConn
	// orphaned latches when Evict or Close drops this entry from the
	// pool; a Get that raced with it starts over instead of parking a
	// fresh conn where nothing will ever close it.
	orphaned bool
}

// Dials returns how many connections the pool has dialed — the
// observable that reuse tests and benchmarks assert on.
func (p *ProverPool) Dials() int64 { return p.dials.Load() }

func (p *ProverPool) entry(addr string) (*poolEntry, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, ErrPoolClosed
	}
	if p.addrs == nil {
		p.addrs = make(map[string]*poolEntry)
	}
	e, ok := p.addrs[addr]
	if !ok {
		e = &poolEntry{}
		p.addrs[addr] = e
	}
	return e, nil
}

// Get returns the warm connection to addr, dialing if there is none or
// it has failed, and the release to call when the audit is done. A
// healthy connection stays pooled across release; release only reaps it
// once it is no longer healthy.
func (p *ProverPool) Get(addr string) (*MuxProverConn, func(error), error) {
	metricPoolGets.Inc()
	for {
		e, err := p.entry(addr)
		if err != nil {
			return nil, nil, err
		}
		e.mu.Lock()
		if e.orphaned {
			e.mu.Unlock()
			continue
		}
		if e.conn == nil || !e.conn.Healthy() {
			if e.conn != nil {
				e.conn.Close()
				e.conn = nil
			}
			timeout := p.DialTimeout
			if timeout <= 0 {
				timeout = 5 * time.Second
			}
			p.dials.Add(1)
			metricPoolDials.Inc()
			var conn *MuxProverConn
			if p.Dial == nil {
				conn, err = DialMuxProver(addr, timeout)
			} else if c, derr := p.Dial(addr); derr != nil {
				err = fmt.Errorf("dial %s: %w", addr, derr)
			} else {
				conn, err = openMux(c, timeout)
			}
			if err != nil {
				e.mu.Unlock()
				return nil, nil, err
			}
			e.conn = conn
		}
		conn := e.conn
		e.mu.Unlock()
		return conn, func(error) { e.reap(conn) }, nil
	}
}

// reap closes and forgets conn once it is no longer healthy.
func (e *poolEntry) reap(conn *MuxProverConn) {
	if conn.Healthy() {
		return
	}
	e.mu.Lock()
	if e.conn == conn {
		e.conn = nil
	}
	e.mu.Unlock()
	conn.Close()
}

// orphan detaches the entry from the pool and closes its connection.
func (e *poolEntry) orphan() {
	e.mu.Lock()
	conn := e.conn
	e.conn = nil
	e.orphaned = true
	e.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
}

// Evict closes and forgets the pooled connection to addr. The fleet
// controller calls it when a prover deregisters or is evicted, so a
// stale warm connection to a departed prover is torn down promptly
// instead of lingering until a health-checked reuse fails mid-audit. A
// later Get for the same address dials fresh.
func (p *ProverPool) Evict(addr string) {
	p.mu.Lock()
	e := p.addrs[addr]
	delete(p.addrs, addr)
	p.mu.Unlock()
	if e == nil {
		return
	}
	metricPoolEvictions.Inc()
	e.orphan()
}

// Close closes every pooled connection and fails later Gets.
func (p *ProverPool) Close() error {
	p.mu.Lock()
	p.closed = true
	addrs := p.addrs
	p.addrs = nil
	p.mu.Unlock()
	for _, e := range addrs {
		e.orphan()
	}
	return nil
}

// PooledRunner drives audits through an in-process verifier over the
// pool's warm connection to one prover: concurrent audits share it, each
// of an audit's k serial rounds is its own stream, and the dial
// handshake stays out of the audit hot path.
type PooledRunner struct {
	Verifier *Verifier
	Addr     string
	Pool     *ProverPool
}

var _ AuditRunner = (*PooledRunner)(nil)

// RunAudit borrows the pooled connection for one audit.
func (r *PooledRunner) RunAudit(ctx context.Context, req AuditRequest) (SignedTranscript, error) {
	endCheckout := telemetry.TraceFrom(ctx).Span("pool-checkout")
	conn, release, err := r.Pool.Get(r.Addr)
	endCheckout()
	if err != nil {
		return SignedTranscript{}, fmt.Errorf("pooled prover conn: %w", err)
	}
	st, err := r.Verifier.RunAudit(ctx, req, conn)
	release(err)
	return st, err
}
