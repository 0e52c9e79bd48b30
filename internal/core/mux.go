package core

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// This file is the client side of the transport, on both legs: one
// connection carries many concurrent streams — one per timed round from a
// verifier to a prover, one per audit from a TPA to a verifier daemon —
// plus both halves of the handshake that opens it. See
// internal/wire/doc.go for the protocol itself.

// ErrConnClosed reports an exchange attempted on a mux connection that
// is already closed or failed.
var ErrConnClosed = errors.New("core: mux connection closed")

// ErrMuxRefused reports a peer that does not speak this build's protocol
// version: it answered the Hello with anything but a HelloAck naming
// wire.MuxVersion. There is no fallback; the connection is closed.
var ErrMuxRefused = errors.New("core: peer refused the mux handshake")

// maxTombstones bounds the cancelled streams whose reply a connection
// may still be waiting to discard. A tombstone is freed only when the
// prover answers, so a prover that withholds replies would otherwise
// grow the verifier's memory for the life of the connection; past the
// bound the connection fails and the pool redials.
const maxTombstones = 256

// muxReadBuf sizes the buffered reader each end of a mux connection reads
// through. Frames are ≈ 100 bytes, so a few KiB holds a burst of them and
// a whole frame arrives in one read of the socket; every pooled
// connection carries one, so it is not sized for the rare large frame
// (bufio reads a payload larger than its buffer straight into the
// destination).
const muxReadBuf = 4 << 10

// maxWriteBuf bounds a connection's write buffers. It is the largest
// buffer kept between batches, so a 16 MiB frame never pins 16 MiB per
// connection, and the most a batching end queues behind a running Write:
// past it writers wait for the Write, so a peer that stops reading stalls
// a server's read loop as TCP backpressure should, instead of growing its
// memory.
const maxWriteBuf = 64 << 10

// frameWriter is the write half of a mux connection, on either end.
// Writers append whole frames to a pending buffer the connection owns;
// the first to find no flush running becomes the flusher and hands
// everything pending to one Write. On a batching end (the two servers)
// it does so again while frames arrived during the call, and every other
// writer appends and returns. Elsewhere (the verifier's challenges)
// writers take turns: a frame that arrives while a Write is running waits
// for its own, so a challenge never waits for a sibling's Write after its
// own; only the frames queued while the flusher yields, before its Write,
// join that Write. Either end yields only where yield says so, on one P.
// Frames never interleave and never straddle two system calls. A failed
// Write is latched: every later write returns it, and the frames queued
// behind it are dropped with the connection, which the caller fails.
type frameWriter struct {
	conn net.Conn
	// batch lets a writer that finds a flush running queue its frame for
	// that flush and return.
	batch bool
	// yield, when set, reports whether a flusher should let other
	// goroutines run once before writing, so a sibling frame that is
	// about to be written joins the batch: a reply being served
	// (ProverServer), a challenge whose stream's last reply was delivered
	// but not yet taken (MuxProverConn).
	yield func() bool
	// writes, when set, counts the Write calls.
	writes *telemetry.Counter

	turn sync.Mutex // held across a whole write by an end that does not batch

	mu       sync.Mutex
	pending  []byte // frames not yet handed to the socket; guarded by mu
	spare    []byte // the buffer the last batch went out in, for reuse; guarded by mu
	flushing bool   // guarded by mu
	// gathering is set while a turn-taking flusher yields before its
	// Write: a writer that finds it set queues its frame for that Write
	// and returns instead of waiting for a turn; guarded by mu.
	gathering bool
	err       error // the latched write failure; guarded by mu
	// room, made by a writer that finds the batch full, is closed when
	// the flush takes the batch or ends; guarded by mu.
	room chan struct{}
}

// write queues one frame and, unless a flush is already running, sends
// it. Its payload is payload or, when req is non-nil, req's encoding,
// appended straight into the frame. A frame too large to send is refused
// with wire.ErrFrameTooLarge and leaves the connection as it was.
func (w *frameWriter) write(typ byte, stream uint32, payload []byte, req *wire.SegmentRequest) error {
	w.mu.Lock()
	if !w.batch && !(w.gathering && len(w.pending) < maxWriteBuf) {
		w.mu.Unlock()
		w.turn.Lock()
		defer w.turn.Unlock()
		w.mu.Lock()
	}
	for w.flushing && w.err == nil && len(w.pending) >= maxWriteBuf {
		if w.room == nil {
			w.room = make(chan struct{})
		}
		room := w.room
		w.mu.Unlock()
		<-room
		w.mu.Lock()
	}
	if err := w.err; err != nil {
		w.mu.Unlock()
		return err
	}
	n := len(payload)
	if req != nil {
		n = req.EncodedLen()
	}
	buf, err := wire.AppendMuxHeader(w.pending, typ, stream, n)
	if err != nil {
		w.mu.Unlock()
		return err
	}
	if req != nil {
		buf = req.Append(buf)
	} else {
		buf = append(buf, payload...)
	}
	w.pending = buf
	if w.flushing {
		w.mu.Unlock()
		return nil // the running flush sends it
	}
	w.flushing = true
	yield := w.yield != nil && w.yield()
	w.gathering = yield && !w.batch
	w.mu.Unlock()
	if yield {
		runtime.Gosched()
	}
	return w.flush()
}

// flush sends what is pending, one Write per batch, until nothing is
// left or a Write fails. Only the writer that set flushing calls it.
func (w *frameWriter) flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.gathering = false
	for len(w.pending) > 0 {
		batch := w.pending
		w.pending, w.spare = w.spare[:0], nil
		w.wake()
		w.mu.Unlock()
		_, err := w.conn.Write(batch)
		if w.writes != nil {
			w.writes.Inc()
		}
		w.mu.Lock()
		if cap(batch) <= maxWriteBuf {
			w.spare = batch
		}
		if err != nil {
			w.err, w.pending = err, nil
			break
		}
	}
	w.flushing = false
	w.wake()
	return w.err
}

// wake releases the writers waiting on a full batch. The caller holds mu.
func (w *frameWriter) wake() {
	if w.room != nil {
		close(w.room)
		w.room = nil
	}
}

// failed reports whether a Write has failed.
func (w *frameWriter) failed() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err != nil
}

// reply sends the one frame a server owes a stream. A reply too large for
// a frame goes as a TypeError naming the limit instead, so the peer's
// stream ends at once rather than waiting out its context. A failed write
// closes the connection, which stops the server's read loop; reply
// reports whether the connection can go on.
func (w *frameWriter) reply(typ byte, stream uint32, payload []byte) bool {
	err := w.write(typ, stream, payload, nil)
	if errors.Is(err, wire.ErrFrameTooLarge) {
		return w.refuse(stream, err.Error())
	}
	if err != nil {
		w.conn.Close()
		return false
	}
	return true
}

// refuse answers a stream with a TypeError frame carrying msg.
func (w *frameWriter) refuse(stream uint32, msg string) bool {
	return w.reply(wire.TypeError, stream, wire.ErrorMessage{Msg: msg}.Encode())
}

// muxMsg is one demultiplexed frame handed to a waiting stream. The
// payload is the exact-size slice the frame was read into; the receiver
// owns it.
type muxMsg struct {
	typ     byte
	payload []byte
}

// MuxProverConn carries many concurrent streams over one connection. To
// a prover it is a ProverConn (GetSegment, one stream per timed round);
// to a verifier daemon it is an AuditRunner (RunAudit, one stream per
// audit). It is safe for concurrent use: every exchange gets its own
// stream ID, a demux loop routes the one reply each stream is owed, and
// cancelling one stream's context abandons only that stream — sibling
// exchanges and the connection itself stay serviceable. Its requests take
// turns at the socket; on one P a request that starts a write first
// yields once to a sibling whose reply is delivered but not yet taken,
// so requests ready together share the write (frameWriter).
type MuxProverConn struct {
	conn net.Conn
	w    frameWriter

	mu      sync.Mutex
	nextID  uint32
	pending map[uint32]chan muxMsg
	// tomb holds cancelled streams whose reply has not arrived yet, so a
	// late reply is recognised and dropped instead of read as a protocol
	// violation.
	tomb map[uint32]struct{}
	// free holds the reply channels of streams that ended with a clean
	// receive — empty, open, referenced by nobody else — for issue to
	// hand out again.
	free []chan muxMsg
	err  error
	// ready counts the replies the demux has delivered and their streams'
	// owners have not taken yet, while the connection is live; on one P a
	// challenge's writer yields once while it is non-zero, so the owner's
	// next challenge joins the Write. Written under mu, read by the writer
	// without it.
	ready atomic.Int32

	closeOnce sync.Once
	rdone     chan struct{}
}

var (
	_ ProverConn  = (*MuxProverConn)(nil)
	_ AuditRunner = (*MuxProverConn)(nil)
)

// NewMuxProverConn wraps a connection on which the handshake has already
// been done and starts its demux loop. Most callers want DialMuxProver.
func NewMuxProverConn(conn net.Conn) *MuxProverConn {
	c := &MuxProverConn{
		conn:    conn,
		pending: make(map[uint32]chan muxMsg),
		tomb:    make(map[uint32]struct{}),
		rdone:   make(chan struct{}),
	}
	// As on the prover, only one P needs the yield: with more, a sibling
	// runs beside the Write, and its challenge takes the next turn.
	oneP := runtime.GOMAXPROCS(0) == 1
	c.w = frameWriter{conn: conn, writes: metricMuxChallengeWrites,
		yield: func() bool { return oneP && c.ready.Load() > 0 }}
	go c.readLoop()
	return c
}

// clockOf is the transport's one clock seam: a connection that carries
// its own clock (a simulated stream on virtual time) is timed on it, any
// other on the wall clock.
func clockOf(conn net.Conn) vclock.Clock {
	if c, ok := conn.(interface{ Clock() vclock.Clock }); ok {
		return c.Clock()
	}
	return vclock.Real{}
}

// DialMuxProver connects to a prover or a verifier daemon and checks that
// it speaks wire.MuxVersion; a peer that does not is refused with
// ErrMuxRefused. The handshake shares the dial's timeout, so a peer that
// accepts the connection and then says nothing cannot hang the caller.
func DialMuxProver(addr string, timeout time.Duration) (*MuxProverConn, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	return openMux(conn, timeout)
}

// openMux runs the client half of the handshake on a fresh connection,
// under timeout on the connection's clock, and starts its demux loop. On
// failure the connection is closed.
func openMux(conn net.Conn, timeout time.Duration) (*MuxProverConn, error) {
	var deadline time.Time
	if timeout > 0 {
		deadline = clockOf(conn).Now().Add(timeout)
	}
	err := conn.SetDeadline(deadline)
	if err == nil {
		err = muxHandshake(conn)
	}
	if err == nil {
		err = conn.SetDeadline(time.Time{})
	}
	if err != nil {
		conn.Close()
		return nil, err
	}
	return NewMuxProverConn(conn), nil
}

// muxHandshake sends the Hello on stream 0 and requires a HelloAck naming
// wire.MuxVersion in return.
func muxHandshake(conn net.Conn) error {
	hello := wire.Hello{MaxVersion: wire.MuxVersion}
	if err := wire.WriteMuxFrame(conn, wire.TypeHello, 0, hello.Encode()); err != nil {
		return fmt.Errorf("send hello: %w", err)
	}
	typ, _, payload, err := wire.ReadMuxFrame(conn)
	if err != nil {
		return fmt.Errorf("read hello reply: %w", err)
	}
	defer wire.PutBuffer(payload)
	switch typ {
	case wire.TypeHelloAck:
		ack, err := wire.DecodeHelloAck(payload)
		if err != nil {
			return err
		}
		if ack.Version != wire.MuxVersion {
			return fmt.Errorf("%w: server acked version %d, want %d", ErrMuxRefused, ack.Version, wire.MuxVersion)
		}
		return nil
	case wire.TypeError:
		return fmt.Errorf("%w: %v", ErrMuxRefused, wire.DecodeErrorMessage(payload))
	default:
		return fmt.Errorf("%w: hello reply of type %d", ErrMuxRefused, typ)
	}
}

// helloTimeout bounds how long either server spends on a new
// connection's handshake: reading its Hello and writing the reply. A
// client sends the Hello as soon as it connects, so only a silent or
// stalled peer runs into it.
const helloTimeout = 3 * time.Second

// acceptMuxHello is the server half of the handshake, shared by both
// servers. A connection's first frame must be a well-formed Hello offering
// at least wire.MuxVersion, which is acked; anything else — including no
// Hello within helloTimeout — is refused, a malformed or old Hello with
// one TypeError. It reports whether the connection may go on; the caller
// closes it either way. It reads conn directly and takes exactly the
// Hello's bytes, so the caller's buffered reader starts on the next
// frame.
func acceptMuxHello(conn net.Conn) bool {
	if conn.SetDeadline(clockOf(conn).Now().Add(helloTimeout)) != nil {
		return false
	}
	typ, _, payload, err := wire.ReadMuxFrame(conn)
	if err != nil {
		return false // EOF, silence or broken peer: nothing to answer
	}
	hello, herr := wire.DecodeHello(payload)
	wire.PutBuffer(payload)
	if typ != wire.TypeHello || herr != nil || hello.MaxVersion < wire.MuxVersion {
		msg := fmt.Sprintf("mux v%d hello required", wire.MuxVersion)
		_ = wire.WriteMuxFrame(conn, wire.TypeError, 0, wire.ErrorMessage{Msg: msg}.Encode()) // closing either way
		return false
	}
	if wire.WriteMuxFrame(conn, wire.TypeHelloAck, 0, wire.HelloAck{Version: wire.MuxVersion}.Encode()) != nil {
		return false
	}
	return conn.SetDeadline(time.Time{}) == nil
}

// Healthy reports whether the connection can still carry exchanges.
func (c *MuxProverConn) Healthy() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err == nil
}

// Close shuts the connection down; in-flight exchanges fail with
// ErrConnClosed.
func (c *MuxProverConn) Close() error {
	c.closeOnce.Do(func() {
		c.fail(ErrConnClosed)
		<-c.rdone
	})
	return nil
}

// fail latches the connection's terminal error, closes the socket (which
// unblocks the demux loop) and wakes every in-flight stream.
func (c *MuxProverConn) fail(err error) {
	c.mu.Lock()
	c.failLocked(err)
	c.mu.Unlock()
}

func (c *MuxProverConn) failLocked(err error) {
	if c.err != nil {
		return
	}
	c.err = err
	c.ready.Store(0) // a dead connection writes nothing more to yield for
	c.conn.Close()
	for id, ch := range c.pending {
		close(ch)
		delete(c.pending, id)
	}
}

// connErr returns the latched terminal error.
func (c *MuxProverConn) connErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	return ErrConnClosed
}

// issue allocates a stream. IDs increase and wrap; 0 and any ID still
// pending or tombstoned are skipped, so a reply can never be delivered
// to the wrong exchange (both sets are small, so the skip loop is
// short). The channel is buffered for the one reply the stream is owed,
// so the demux loop never blocks on a slow stream owner; it comes off
// the free list when an earlier stream left one there.
func (c *MuxProverConn) issue() (uint32, chan muxMsg, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return 0, nil, c.err
	}
	for {
		c.nextID++
		if c.nextID == 0 {
			continue
		}
		if _, live := c.pending[c.nextID]; live {
			continue
		}
		if _, dead := c.tomb[c.nextID]; !dead {
			break
		}
	}
	var ch chan muxMsg
	if n := len(c.free); n > 0 {
		ch, c.free = c.free[n-1], c.free[:n-1]
	} else {
		ch = make(chan muxMsg, 1)
	}
	c.pending[c.nextID] = ch
	return c.nextID, ch, nil
}

// recycle counts a delivered reply taken and takes back its stream's
// reply channel. Only that path may call it: after a cancel, a failed
// write or a connection failure, dispatch or failLocked may still hold
// the channel.
func (c *MuxProverConn) recycle(ch chan muxMsg) {
	c.mu.Lock()
	c.untake()
	c.free = append(c.free, ch)
	c.mu.Unlock()
}

// untake counts one delivered reply off ready. failLocked zeroed the
// count of a failed connection, so there it counts nothing. The caller
// holds mu.
func (c *MuxProverConn) untake() {
	if c.err == nil {
		c.ready.Add(-1)
	}
}

// cancel abandons a stream: the reply the server still owes it is
// tombstoned so the demux loop drops it on arrival. Only this stream
// dies — unless the prover has left maxTombstones cancelled streams
// unanswered, which fails the connection. A reply already delivered to
// ch is drained instead, so it no longer counts as ready.
func (c *MuxProverConn) cancel(id uint32, ch chan muxMsg) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.pending[id]; !ok {
		// The reply already arrived (dispatch sent it under mu, so it is
		// buffered now) or the conn failed and closed ch.
		select {
		case _, ok := <-ch:
			if ok {
				c.untake()
			}
		default:
		}
		return
	}
	delete(c.pending, id)
	if len(c.tomb) >= maxTombstones {
		c.failLocked(fmt.Errorf("%w: prover left %d cancelled streams unanswered", ErrConnClosed, len(c.tomb)))
		return
	}
	c.tomb[id] = struct{}{}
}

// forget drops a stream that never reached the server (its request
// write failed), so no tombstone is owed.
func (c *MuxProverConn) forget(id uint32) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// writeFrame sends one request frame: a segment request when req is
// non-nil, payload otherwise. A write failure is terminal for the
// connection.
func (c *MuxProverConn) writeFrame(typ byte, stream uint32, payload []byte, req *wire.SegmentRequest) error {
	if err := c.w.write(typ, stream, payload, req); err != nil {
		err = fmt.Errorf("core: mux write: %w", err)
		c.fail(err)
		return err
	}
	metricMuxFramesWritten.Inc()
	return nil
}

// readLoop demultiplexes incoming frames to their streams. It owns the
// read side of the socket and exits when the connection fails or closes.
// Reading through a buffer, a reply costs one read of the socket rather
// than one for its header and one for its payload.
func (c *MuxProverConn) readLoop() {
	defer close(c.rdone)
	br := bufio.NewReaderSize(c.conn, muxReadBuf)
	for {
		typ, stream, payload, err := wire.ReadMuxFrameOwned(br)
		if err != nil {
			c.fail(fmt.Errorf("core: mux read: %w", err))
			return
		}
		metricMuxFramesRead.Inc()
		if !c.dispatch(stream, muxMsg{typ: typ, payload: payload}) {
			return
		}
	}
}

// dispatch routes one frame to the stream waiting for it. It reports
// whether the loop should keep reading.
func (c *MuxProverConn) dispatch(stream uint32, msg muxMsg) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dead := c.tomb[stream]; dead {
		delete(c.tomb, stream) // the late reply to a cancelled stream
		return true
	}
	ch, ok := c.pending[stream]
	if !ok {
		// A frame for a stream this client never issued (or already
		// answered) means the two sides disagree about the framing — that
		// is unrecoverable, so kill the connection.
		c.failLocked(fmt.Errorf("core: mux frame for unknown stream %d", stream))
		return false
	}
	delete(c.pending, stream)
	ch <- msg // buffered; never blocks
	c.ready.Add(1)
	return true
}

// exchange sends one request frame on a fresh stream and waits for its
// one reply. Cancelling ctx abandons only this stream.
func (c *MuxProverConn) exchange(ctx context.Context, typ byte, payload []byte, req *wire.SegmentRequest) (muxMsg, error) {
	if err := ctx.Err(); err != nil {
		return muxMsg{}, err
	}
	id, ch, err := c.issue()
	if err != nil {
		return muxMsg{}, err
	}
	if err := c.writeFrame(typ, id, payload, req); err != nil {
		c.forget(id)
		return muxMsg{}, err
	}
	select {
	case msg, ok := <-ch:
		if !ok {
			return muxMsg{}, c.connErr()
		}
		c.recycle(ch)
		return msg, nil
	case <-ctx.Done():
		c.cancel(id, ch)
		return muxMsg{}, ctx.Err()
	}
}

// GetSegment performs one challenge round on its own stream. The caller
// times it: one request, one reply, one round trip. The returned segment
// is the slice the reply was read into.
func (c *MuxProverConn) GetSegment(ctx context.Context, fileID string, index uint64) ([]byte, error) {
	msg, err := c.exchange(ctx, wire.TypeSegmentRequest, nil, &wire.SegmentRequest{FileID: fileID, Index: index})
	if err != nil {
		return nil, err
	}
	switch msg.typ {
	case wire.TypeSegmentResponse:
		return msg.payload, nil
	case wire.TypeError:
		return nil, wire.DecodeErrorMessage(msg.payload)
	default:
		return nil, fmt.Errorf("core: unexpected mux frame type %d", msg.typ)
	}
}

// RunAudit ships one audit to a verifier daemon on its own stream and
// waits for the signed transcript, so concurrent audits share the
// connection and cancelling ctx abandons only this one.
func (c *MuxProverConn) RunAudit(ctx context.Context, req AuditRequest) (SignedTranscript, error) {
	msg, err := c.exchange(ctx, wire.TypeAuditRequest, EncodeAuditRequest(req), nil)
	if err != nil {
		return SignedTranscript{}, err
	}
	switch msg.typ {
	case wire.TypeSignedTranscript:
		return DecodeSignedTranscript(msg.payload)
	case wire.TypeError:
		return SignedTranscript{}, wire.DecodeErrorMessage(msg.payload)
	default:
		return SignedTranscript{}, fmt.Errorf("core: unexpected mux frame type %d", msg.typ)
	}
}
