package core

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/crypt"
	"repro/internal/wire"
)

// VerifierServer exposes a verifier device to remote TPAs: it accepts
// audit-request frames, runs the timed rounds against its prover
// connection, and returns the signed transcript. This is the third leg
// that makes the deployment fully distributed (TPA, verifier and prover
// each on their own host), matching the paper's Fig. 4 architecture.
type VerifierServer struct {
	Verifier *Verifier
	// Dial opens the device's channel to the prover for one audit.
	// Audits run sequentially per connection, so the prover link is
	// re-established per request — the initialisation phase is not time
	// critical (§III-A).
	Dial func() (ProverConn, error)
	// BatchSigner, when set, offers wire.FeatureBatchSign: TPA
	// connections that negotiate it receive batch-attested transcripts
	// (one root signature amortized over many audits) instead of
	// per-transcript signatures. Connections that never send a Hello —
	// old TPAs — keep the per-transcript path untouched.
	BatchSigner *crypt.BatchSigner

	mu     sync.Mutex
	closed bool
	lis    net.Listener
	wg     sync.WaitGroup
}

// Serve accepts TPA connections until the listener closes.
func (s *VerifierServer) Serve(lis net.Listener) error {
	s.mu.Lock()
	s.lis = lis
	s.mu.Unlock()
	for {
		conn, err := lis.Accept()
		if err != nil {
			s.wg.Wait()
			return err
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// Close stops accepting TPA connections.
func (s *VerifierServer) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.lis != nil {
		return s.lis.Close()
	}
	return nil
}

func (s *VerifierServer) handle(conn net.Conn) {
	defer conn.Close()
	// The per-connection verifier: swapped for a batch-signing copy when
	// the TPA negotiates wire.FeatureBatchSign.
	v := s.Verifier
	for {
		typ, payload, err := wire.ReadFrame(conn)
		if err != nil {
			return
		}
		switch typ {
		case wire.TypePing:
			if err := wire.WriteFrame(conn, wire.TypePong, nil); err != nil {
				return
			}
		case wire.TypeHello:
			// Feature negotiation on the TPA leg. Framing stays serial v1
			// (Version 1 in the ack) — unlike the prover leg, a Hello here
			// never upgrades to mux, it only switches the attestation form.
			hello, err := wire.DecodeHello(payload)
			if err != nil {
				if werr := wire.WriteFrame(conn, wire.TypeError, wire.ErrorMessage{Msg: err.Error()}.Encode()); werr != nil {
					return
				}
				continue
			}
			var features uint32
			if s.BatchSigner != nil && hello.Features&wire.FeatureBatchSign != 0 {
				features |= wire.FeatureBatchSign
				v = s.Verifier.WithBatchSigner(s.BatchSigner)
			} else {
				v = s.Verifier
			}
			if err := wire.WriteFrame(conn, wire.TypeHelloAck, wire.HelloAck{Version: 1, Features: features}.Encode()); err != nil {
				return
			}
		case wire.TypeAuditRequest:
			req, err := DecodeAuditRequest(payload)
			if err != nil {
				if werr := wire.WriteFrame(conn, wire.TypeError, wire.ErrorMessage{Msg: err.Error()}.Encode()); werr != nil {
					return
				}
				continue
			}
			st, err := s.runOne(v, req)
			if err != nil {
				if werr := wire.WriteFrame(conn, wire.TypeError, wire.ErrorMessage{Msg: err.Error()}.Encode()); werr != nil {
					return
				}
				continue
			}
			if err := wire.WriteFrame(conn, wire.TypeSignedTranscript, EncodeSignedTranscript(st)); err != nil {
				return
			}
		default:
			if err := wire.WriteFrame(conn, wire.TypeError, wire.ErrorMessage{Msg: "unknown frame type"}.Encode()); err != nil {
				return
			}
		}
	}
}

func (s *VerifierServer) runOne(v *Verifier, req AuditRequest) (SignedTranscript, error) {
	pc, err := s.Dial()
	if err != nil {
		return SignedTranscript{}, fmt.Errorf("dial prover: %w", err)
	}
	if closer, ok := pc.(interface{ Close() error }); ok {
		defer closer.Close()
	}
	// The daemon's own deadline discipline is the TPA connection's; the
	// audit itself runs uncancelled here.
	return v.RunAudit(context.Background(), req, pc)
}

// RemoteVerifier is the TPA-side client of a VerifierServer.
type RemoteVerifier struct {
	conn     net.Conn
	features uint32
	// desynced latches when a cancelled context abandoned an audit
	// mid-exchange; see ErrConnDesynced.
	desynced atomic.Bool
}

// DialVerifier connects to a verifier daemon and probes its feature set
// with a v1-framed Hello. A new daemon answers HelloAck with the
// features it granted (batch attestation, when it runs a BatchSigner);
// an old daemon answers its usual unknown-frame TypeError and the
// connection proceeds feature-less — zero-config fallback in both
// directions, mirroring the prover-leg mux negotiation.
func DialVerifier(addr string, timeout time.Duration) (*RemoteVerifier, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("dial verifier: %w", err)
	}
	r := &RemoteVerifier{conn: conn}
	if timeout > 0 {
		_ = conn.SetDeadline(time.Now().Add(timeout))
	}
	hello := wire.Hello{MaxVersion: 1, Features: wire.FeatureBatchSign}
	if err := wire.WriteFrame(conn, wire.TypeHello, hello.Encode()); err != nil {
		conn.Close()
		return nil, fmt.Errorf("verifier hello: %w", err)
	}
	typ, payload, err := wire.ReadFrame(conn)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("verifier hello: %w", err)
	}
	if typ == wire.TypeHelloAck {
		ack, err := wire.DecodeHelloAck(payload)
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("verifier hello: %w", err)
		}
		r.features = ack.Features
	}
	// Any other reply (an old daemon's TypeError) means no features.
	_ = conn.SetDeadline(time.Time{})
	return r, nil
}

// BatchSign reports whether the daemon granted batch attestation.
func (r *RemoteVerifier) BatchSign() bool { return r.features&wire.FeatureBatchSign != 0 }

// Close closes the TPA↔verifier connection.
func (r *RemoteVerifier) Close() error { return r.conn.Close() }

// Healthy reports whether the connection can still carry audits — false
// once a cancelled audit desynced the framing. VerifierPool uses it to
// decide between reuse and redial.
func (r *RemoteVerifier) Healthy() bool { return !r.desynced.Load() }

// SetDeadline bounds all future reads and writes on the connection.
// RemoteRunner sets an absolute per-attempt deadline so a hung daemon
// surfaces as an I/O timeout instead of blocking a goroutine forever.
func (r *RemoteVerifier) SetDeadline(t time.Time) error { return r.conn.SetDeadline(t) }

// ErrConnDesynced reports that a request/response connection was
// abandoned mid-exchange by a cancelled context: the peer's response may
// still be in flight, so any further exchange could read a stale frame.
// The connection must be reconnected, never reused. Only the serial
// TPA↔verifier-daemon leg can get here — mux streams cancel individually
// without touching their siblings.
var ErrConnDesynced = errors.New("core: connection desynced by a cancelled exchange; reconnect")

// pokeOnCancel arms ctx to interrupt conn's blocking I/O by expiring its
// deadline, and returns the disarm function. Disarm reports whether the
// poke fired (waiting out an in-flight callback first, so the report is
// never racy): a fired poke means the exchange was abandoned with the
// response possibly still in flight, and the caller must mark the
// connection desynced — handing back stale frames to the next exchange
// would silently blame a healthy prover.
func pokeOnCancel(ctx context.Context, conn net.Conn) (disarm func() (fired bool)) {
	if ctx.Done() == nil {
		return func() bool { return false }
	}
	done := make(chan struct{})
	stop := context.AfterFunc(ctx, func() {
		conn.SetDeadline(time.Now())
		close(done)
	})
	return func() bool {
		if stop() {
			return false // callback never ran and never will
		}
		<-done
		return true
	}
}

// RunAudit submits the request and waits for the signed transcript.
// Cancelling ctx pokes the connection deadline so a daemon that stops
// responding cannot strand the caller.
func (r *RemoteVerifier) RunAudit(ctx context.Context, req AuditRequest) (SignedTranscript, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return SignedTranscript{}, err
	}
	if r.desynced.Load() {
		return SignedTranscript{}, ErrConnDesynced
	}
	disarm := pokeOnCancel(ctx, r.conn)
	defer func() {
		if disarm() {
			r.desynced.Store(true)
		}
	}()
	if err := wire.WriteFrame(r.conn, wire.TypeAuditRequest, EncodeAuditRequest(req)); err != nil {
		return SignedTranscript{}, fmt.Errorf("send request: %w", err)
	}
	typ, payload, err := wire.ReadFrame(r.conn)
	if err != nil {
		return SignedTranscript{}, fmt.Errorf("read response: %w", err)
	}
	switch typ {
	case wire.TypeSignedTranscript:
		return DecodeSignedTranscript(payload)
	case wire.TypeError:
		return SignedTranscript{}, wire.DecodeErrorMessage(payload)
	default:
		return SignedTranscript{}, fmt.Errorf("core: unexpected frame type %d", typ)
	}
}

// RemoteRunner ships each audit to a verifier daemon. Without a Pool it
// dials per audit so concurrent audits get independent connections; with
// a Pool, connections are checked out, health-checked and reused — a
// desynced or failed connection is replaced by a fresh dial.
type RemoteRunner struct {
	Addr        string
	DialTimeout time.Duration
	// AttemptTimeout, when positive, bounds the whole remote audit with an
	// absolute I/O deadline on the daemon connection. Pair it with the
	// scheduler's Timeout: the scheduler frees the window slot at its
	// deadline, and this deadline makes the abandoned attempt itself
	// unblock instead of leaking against a hung daemon. Pooled
	// connections clear it again on the next checkout.
	AttemptTimeout time.Duration
	// Pool, when non-nil, reuses daemon connections across audits.
	Pool *VerifierPool
}

var _ AuditRunner = (*RemoteRunner)(nil)

// RunAudit obtains a daemon connection (pooled or freshly dialed),
// submits the request and waits for the signed transcript.
func (r *RemoteRunner) RunAudit(ctx context.Context, req AuditRequest) (SignedTranscript, error) {
	var rv *RemoteVerifier
	var err error
	if r.Pool != nil {
		rv, err = r.Pool.Get(r.Addr)
	} else {
		timeout := r.DialTimeout
		if timeout <= 0 {
			timeout = 5 * time.Second
		}
		rv, err = DialVerifier(r.Addr, timeout)
	}
	if err != nil {
		return SignedTranscript{}, err
	}
	if r.AttemptTimeout > 0 {
		if err := rv.SetDeadline(time.Now().Add(r.AttemptTimeout)); err != nil {
			rv.Close()
			return SignedTranscript{}, fmt.Errorf("set attempt deadline: %w", err)
		}
	}
	st, err := rv.RunAudit(ctx, req)
	if r.Pool != nil {
		r.Pool.Put(r.Addr, rv, err)
	} else {
		rv.Close()
	}
	return st, err
}
