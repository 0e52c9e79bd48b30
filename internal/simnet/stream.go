package simnet

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/vclock"
)

// This file is the stream half of the simulator: a listener per node and
// an in-memory net.Conn per dial, so the shipped transport runs over the
// latency models on virtual time. A Write returns at once, its bytes
// stamped with the instant they reach the peer; the Read that takes them
// moves the network's clock to that instant, and read deadlines are
// compared against the same clock (a blocked Read's deadline fires when
// bytes due after it arrive). That is deterministic while one exchange at
// a time is in flight, and promises nothing about concurrent exchanges.

// Errors reported by the stream link.
var (
	ErrRefused = errors.New("simnet: connection refused")
	ErrReset   = errors.New("simnet: connection reset")
)

// chunk is one Write in flight and the instant it reaches the reader.
type chunk struct {
	data []byte
	at   time.Time
}

// pipe is one direction of a stream.
type pipe struct {
	chunks []chunk
	last   time.Time // deliver-at of the latest write
	rdl    time.Time // the reader's deadline
	eof    bool      // the writer closed: reads drain the queue, then io.EOF
	err    error     // the reader closed or the stream was reset
}

// stream is the state both ends share, under one lock.
type stream struct {
	mu   sync.Mutex
	wake sync.Cond
	dir  [2]pipe
}

// streamConn is one end of a stream between two nodes: it reads dir[side]
// and writes the other. Its Clock method is the transport's clock seam:
// exchanges on the stream are timed on the network's virtual clock.
type streamConn struct {
	net           *Network
	lat           Latency
	local, remote string
	s             *stream
	side          int
	closed        atomic.Bool
}

// Clock returns the virtual clock the stream runs on.
func (c *streamConn) Clock() vclock.Clock { return c.net.clock }

// update changes the stream under its lock and wakes blocked readers.
func (c *streamConn) update(fn func(rx, tx *pipe)) {
	c.s.mu.Lock()
	fn(&c.s.dir[c.side], &c.s.dir[1-c.side])
	c.s.wake.Broadcast()
	c.s.mu.Unlock()
}

// Read takes bytes from the oldest chunk and moves the clock to its
// deliver-at instant. A chunk due after the read deadline moves the clock
// to the deadline instead and fails the read with os.ErrDeadlineExceeded.
func (c *streamConn) Read(b []byte) (int, error) {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	p := &c.s.dir[c.side]
	for {
		switch {
		case p.err != nil:
			return 0, p.err
		case !p.rdl.IsZero() && !c.net.clock.Now().Before(p.rdl):
			return 0, os.ErrDeadlineExceeded
		case len(p.chunks) > 0:
			ch := &p.chunks[0]
			if !p.rdl.IsZero() && ch.at.After(p.rdl) {
				c.net.clock.Set(p.rdl)
				return 0, os.ErrDeadlineExceeded
			}
			c.net.clock.Set(ch.at)
			n := copy(b, ch.data)
			if ch.data = ch.data[n:]; len(ch.data) == 0 {
				p.chunks[0] = chunk{}
				p.chunks = p.chunks[1:]
			}
			return n, nil
		case p.eof:
			return 0, io.EOF
		}
		c.s.wake.Wait()
	}
}

// Write queues a copy of b for the peer, due one link delay from now but
// never before the previous write: jitter cannot reorder the stream.
func (c *streamConn) Write(b []byte) (int, error) {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	p := &c.s.dir[1-c.side]
	if p.err != nil {
		return 0, p.err
	}
	if p.eof {
		return 0, net.ErrClosed
	}
	if at := c.net.clock.Now().Add(c.net.oneWay(c.lat)); at.After(p.last) {
		p.last = at
	}
	p.chunks = append(p.chunks, chunk{data: append([]byte(nil), b...), at: p.last})
	c.s.wake.Broadcast()
	return len(b), nil
}

// Close ends this side: the peer reads what is queued, then io.EOF, and
// its writes fail.
func (c *streamConn) Close() error {
	c.closed.Store(true)
	c.update(func(rx, tx *pipe) {
		if rx.err == nil {
			rx.err = net.ErrClosed
		}
		tx.eof = true
	})
	return nil
}

// reset fails both directions, as a peer's RST would.
func (c *streamConn) reset() {
	c.update(func(rx, tx *pipe) { rx.err, tx.err = ErrReset, ErrReset })
}

func (c *streamConn) LocalAddr() net.Addr  { return &net.UnixAddr{Name: c.local, Net: "simnet"} }
func (c *streamConn) RemoteAddr() net.Addr { return &net.UnixAddr{Name: c.remote, Net: "simnet"} }

func (c *streamConn) SetDeadline(t time.Time) error { return c.SetReadDeadline(t) }

func (c *streamConn) SetReadDeadline(t time.Time) error {
	c.update(func(rx, _ *pipe) { rx.rdl = t })
	return nil
}

// SetWriteDeadline is a no-op: a Write never blocks.
func (c *streamConn) SetWriteDeadline(time.Time) error { return nil }

// listener is a node's accept queue. Its backlog is bounded like a TCP
// listen queue: a dial that finds it full is refused.
type listener struct {
	net   *Network
	name  string
	conns chan *streamConn
	done  chan struct{}
	once  sync.Once
}

func (l *listener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// Close stops accepting: later dials to the node are refused, and streams
// dialed but not yet accepted are reset.
func (l *listener) Close() error {
	l.once.Do(func() {
		l.net.mu.Lock()
		delete(l.net.listeners, l.name)
		l.net.mu.Unlock()
		close(l.done)
		for len(l.conns) > 0 {
			select {
			case c := <-l.conns:
				c.reset()
			default:
			}
		}
	})
	return nil
}

func (l *listener) Addr() net.Addr { return &net.UnixAddr{Name: l.name, Net: "simnet"} }

// Listen opens the node's listener; a node has at most one.
func (n *Network) Listen(name string) (net.Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.listeners[name] != nil {
		return nil, fmt.Errorf("simnet: %s is already listening", name)
	}
	l := &listener{net: n, name: name, conns: make(chan *streamConn, 64), done: make(chan struct{})}
	n.listeners[name] = l
	return l, nil
}

// Dial opens a stream from node a to node b's listener over their link.
// It is refused while either node is down, b is not listening or b's
// accept backlog is full.
func (n *Network) Dial(a, b string) (net.Conn, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	lat, err := n.linkFor(a, b)
	if err != nil {
		return nil, err
	}
	l := n.listeners[b]
	if l == nil || n.down[a] || n.down[b] {
		return nil, fmt.Errorf("%w: %s -> %s", ErrRefused, a, b)
	}
	st := &stream{}
	st.wake.L = &st.mu
	client := &streamConn{net: n, lat: lat, local: a, remote: b, s: st, side: 0}
	server := &streamConn{net: n, lat: lat, local: b, remote: a, s: st, side: 1}
	select {
	case l.conns <- server:
	default:
		return nil, fmt.Errorf("%w: %s -> %s: backlog full", ErrRefused, a, b)
	}
	live := n.live[:0] // forget closed streams, so redials do not pile up
	for _, c := range n.live {
		if !c.closed.Load() {
			live = append(live, c)
		}
	}
	n.live = append(live, client)
	return client, nil
}

// Dialer returns Dial from node a, shaped for a connection pool's dial
// seam.
func (n *Network) Dialer(a string) func(addr string) (net.Conn, error) {
	return func(b string) (net.Conn, error) { return n.Dial(a, b) }
}

// SetDown takes a node off the network or brings it back. While it is
// down its listener refuses dials; taking it down resets every live
// stream with an end at it (and forgets streams already closed).
func (n *Network) SetDown(name string, down bool) {
	n.mu.Lock()
	n.down[name] = down
	var hit []*streamConn
	live := n.live[:0]
	for _, c := range n.live {
		switch {
		case c.closed.Load():
		case down && (c.local == name || c.remote == name):
			hit = append(hit, c)
		default:
			live = append(live, c)
		}
	}
	n.live = live
	n.mu.Unlock()
	for _, c := range hit {
		c.reset()
	}
}
