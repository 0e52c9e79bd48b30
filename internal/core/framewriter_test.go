package core

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
)

// errInjected is the failure writeLog injects.
var errInjected = errors.New("injected write failure")

// writeLog wraps a connection and records the size of every Write,
// calling onWrite first when set. When hold is set, the first Write waits
// for it to close. From the failFrom-th Write on (counting from 1; 0 =
// never) it fails instead.
type writeLog struct {
	net.Conn
	onWrite  func()
	failFrom int
	hold     chan struct{}

	mu    sync.Mutex
	sizes []int
}

func (c *writeLog) Write(b []byte) (int, error) {
	if c.onWrite != nil {
		c.onWrite()
	}
	c.mu.Lock()
	c.sizes = append(c.sizes, len(b))
	n := len(c.sizes)
	c.mu.Unlock()
	if n == 1 && c.hold != nil {
		<-c.hold
	}
	if c.failFrom > 0 && n >= c.failFrom {
		return 0, errInjected
	}
	return c.Conn.Write(b)
}

// readCount wraps a connection and counts the bytes read through it.
type readCount struct {
	net.Conn
	n atomic.Int64
}

func (c *readCount) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.n.Add(int64(n))
	return n, err
}

// writes returns the sizes of the Writes so far.
func (c *writeLog) writes() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]int(nil), c.sizes...)
}

// indexProvider serves segment i of any file as the single byte i, so a
// reply names the request it answers; oversized, when set, is an index
// whose segment is one byte larger than a frame may carry.
type indexProvider struct{ oversized int64 }

func (indexProvider) Name() string { return "index" }
func (p indexProvider) FetchSegment(_ string, i int64) ([]byte, time.Duration, error) {
	if p.oversized > 0 && i == p.oversized {
		return make([]byte, wire.MaxFrame+1), 0, nil
	}
	return []byte{byte(i)}, 0, nil
}

// serveOnPipe runs srv's connection handler on the server end of a pipe,
// wrapped by wrap, and returns the client end; the handler has returned
// by the end of the test.
func serveOnPipe(t *testing.T, srv *ProverServer, wrap func(net.Conn) net.Conn) net.Conn {
	t.Helper()
	client, server := net.Pipe()
	conn := wrap(server)
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.handle(conn)
	}()
	t.Cleanup(func() { client.Close(); <-done })
	return client
}

// challengeLen is the size of one segment-request frame for file "f".
func challengeLen() int {
	frame, _ := wire.AppendMuxFrame(nil, wire.TypeSegmentRequest, 1, wire.SegmentRequest{FileID: "f"}.Encode())
	return len(frame)
}

// waitFor polls cond until it holds, failing the test after five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestProverServerBatchesReadyReplies: on one P, two requests that
// arrive in one read are answered in one server Write — the first reply
// to flush yields once to its sibling — and each stream still gets
// exactly its own segment, on fresh workers and on parked ones.
func TestProverServerBatchesReadyReplies(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var log *writeLog
	client := serveOnPipe(t, &ProverServer{Provider: indexProvider{}}, func(c net.Conn) net.Conn {
		log = &writeLog{Conn: c}
		return log
	})
	if err := muxHandshake(client); err != nil {
		t.Fatal(err)
	}
	const rounds = 20
	batched := 0
	for round := 0; round < rounds; round++ {
		var reqs []byte
		want := map[uint32]byte{}
		for stream := uint32(1); stream <= 2; stream++ {
			index := uint64(2*round) + uint64(stream)
			reqs, _ = wire.AppendMuxFrame(reqs, wire.TypeSegmentRequest, stream, wire.SegmentRequest{FileID: "f", Index: index}.Encode())
			want[stream] = byte(index)
		}
		before := len(log.writes())
		if _, err := client.Write(reqs); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			typ, stream, payload, err := wire.ReadMuxFrame(client)
			if err != nil {
				t.Fatal(err)
			}
			if typ != wire.TypeSegmentResponse || len(payload) != 1 || payload[0] != want[stream] {
				t.Fatalf("round %d: stream %d got type %d payload %v, want segment [%d]", round, stream, typ, payload, want[stream])
			}
			delete(want, stream)
			wire.PutBuffer(payload)
		}
		if n := len(log.writes()) - before; n == 1 {
			batched++
		}
	}
	// Every 61st scheduling tick Go runs the global queue first, where a
	// yield puts the yielder, so about one pair in sixty leaves in two
	// Writes; without the yield none would share one.
	if batched < 3*rounds/4 {
		t.Fatalf("%d of %d pairs of ready replies shared one server Write", batched, rounds)
	}
}

// TestMuxFailedBatchFailsItsStreams: a Write that fails takes the
// connection with it, and every stream waiting to send behind it gets an
// error at once — none waits for its context — on the verifier end
// (whose challenges wait their turn behind a held Write) and on the
// prover end (whose reply Write fails).
func TestMuxFailedBatchFailsItsStreams(t *testing.T) {
	const streams = 3
	// gather runs streams concurrent rounds on conn under a background
	// context and requires every one to fail within five seconds.
	gather := func(t *testing.T, conn *MuxProverConn, started func()) []error {
		t.Helper()
		errc := make(chan error, streams)
		for i := 0; i < streams; i++ {
			go func(i int) {
				_, err := conn.GetSegment(context.Background(), "f", uint64(i))
				errc <- err
			}(i)
		}
		if started != nil {
			started()
		}
		var errs []error
		for i := 0; i < streams; i++ {
			select {
			case err := <-errc:
				if err == nil {
					t.Fatal("a round succeeded on a connection whose write failed")
				}
				errs = append(errs, err)
			case <-time.After(5 * time.Second):
				t.Fatal("a stream was left waiting after its connection's write failed")
			}
		}
		return errs
	}

	t.Run("verifier", func(t *testing.T) {
		client, server := net.Pipe()
		defer server.Close()
		log := &writeLog{Conn: client, failFrom: 1, hold: make(chan struct{})}
		conn := NewMuxProverConn(log)
		defer conn.Close()
		frame := challengeLen()
		errs := gather(t, conn, func() {
			// The first Write is held; the other challenges wait behind it.
			waitFor(t, "a held write with two challenges waiting", func() bool {
				conn.mu.Lock()
				defer conn.mu.Unlock()
				held := log.writes()
				return len(held) == 1 && held[0] == frame && len(conn.pending) == streams
			})
			close(log.hold)
		})
		for _, err := range errs {
			if !errors.Is(err, errInjected) {
				t.Fatalf("stream error %v, want the failed write", err)
			}
		}
		if err := conn.w.write(wire.TypeSegmentRequest, 99, nil, nil); !errors.Is(err, errInjected) {
			t.Fatalf("write after the failure returned %v, want the latched failure", err)
		}
		if n := len(log.writes()); n != 1 {
			t.Fatalf("%d Writes reached the socket, want 1: the failure is latched", n)
		}
	})

	t.Run("prover", func(t *testing.T) {
		// The HelloAck goes through; the first reply Write fails.
		client := serveOnPipe(t, &ProverServer{Provider: indexProvider{}}, func(c net.Conn) net.Conn {
			return &writeLog{Conn: c, failFrom: 2}
		})
		conn, err := openMux(client, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		gather(t, conn, nil)
	})
}

// TestMuxChallengesNeverWait: the verifier's writer yields only to a
// sibling whose reply is delivered but not yet taken, so with none — even
// on one P with sibling streams in flight and another goroutine runnable
// at the instant it is sent — a challenge leaves in its own Write before
// anything else runs, one Write per GetSegment. Δt_j starts when the
// challenge reaches the socket.
func TestMuxChallengesNeverWait(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const withheld = 100 // the prover never answers these indices
	var (
		log      *writeLog
		runnable chan struct{} // closed by a goroutine started just before this round's challenge
		early    int           // challenges written after that goroutine ran
	)
	conn, seen := pipeProverOn(t, withheld, func(c net.Conn) net.Conn {
		log = &writeLog{Conn: c, onWrite: func() {
			select {
			case <-runnable:
				early++
			default:
			}
		}}
		return log
	})
	var siblings sync.WaitGroup
	defer siblings.Wait()
	defer conn.Close()
	for i := uint64(0); i < 3; i++ {
		siblings.Add(1)
		go func() {
			defer siblings.Done()
			conn.GetSegment(context.Background(), "f", withheld+i) // fails at Close
		}()
		<-seen
	}
	// A pipe Write returns once the far end has read it; start the rounds
	// with the siblings' Writes done.
	waitFor(t, "the siblings' writes", func() bool {
		conn.w.mu.Lock()
		defer conn.w.mu.Unlock()
		return !conn.w.flushing
	})
	before := len(log.writes())
	const rounds = 10
	for i := 0; i < rounds; i++ {
		ch := make(chan struct{})
		runnable = ch
		go close(ch)
		seg, err := conn.GetSegment(context.Background(), "f", uint64(i))
		if err != nil || len(seg) != 1 || seg[0] != byte(i) {
			t.Fatalf("round %d: %v, %v", i, seg, err)
		}
	}
	if early > 0 {
		t.Fatalf("%d of %d challenges let another goroutine run before their Write", early, rounds)
	}
	frame := challengeLen()
	writes := log.writes()[before:]
	if len(writes) != rounds {
		t.Fatalf("%d challenges took %d Writes (%v), want one each", rounds, len(writes), writes)
	}
	for i, n := range writes {
		if n != frame {
			t.Fatalf("Write %d carried %d bytes, want one %d-byte challenge", i, n, frame)
		}
	}
}

// TestMuxChallengesTakeTurns: concurrent challenges each leave in their
// own Write, however many wait behind a slow one, so no challenge's writer
// carries — or waits on — a sibling's frame after its own.
func TestMuxChallengesTakeTurns(t *testing.T) {
	const streams = 3
	hold := make(chan struct{})
	var log *writeLog
	conn, _ := pipeProverOn(t, math.MaxUint64, func(c net.Conn) net.Conn {
		log = &writeLog{Conn: c, hold: hold}
		return log
	})
	errc := make(chan error, streams)
	for i := 0; i < streams; i++ {
		go func(i int) {
			seg, err := conn.GetSegment(context.Background(), "f", uint64(i))
			if err == nil && (len(seg) != 1 || seg[0] != byte(i)) {
				err = fmt.Errorf("round %d got segment %v", i, seg)
			}
			errc <- err
		}(i)
	}
	waitFor(t, "a held write with two challenges waiting", func() bool {
		conn.mu.Lock()
		defer conn.mu.Unlock()
		return len(log.writes()) == 1 && len(conn.pending) == streams
	})
	close(hold)
	for i := 0; i < streams; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	frame := challengeLen()
	writes := log.writes()
	if len(writes) != streams {
		t.Fatalf("%d concurrent challenges took %d Writes (%v), want one each", streams, len(writes), writes)
	}
	for i, n := range writes {
		if n != frame {
			t.Fatalf("Write %d carried %d bytes, want one %d-byte challenge", i, n, frame)
		}
	}
}

// challengeLog wraps a verifier's connection and records, for every
// Write, the indices of the segment requests it carries.
type challengeLog struct {
	net.Conn
	mu      sync.Mutex
	indices [][]uint64
}

func (c *challengeLog) Write(b []byte) (int, error) {
	var indices []uint64
	for r := bytes.NewReader(b); r.Len() > 0; {
		_, _, payload, err := wire.ReadMuxFrame(r)
		if err != nil {
			break
		}
		if _, index, err := wire.SplitSegmentRequest(payload); err == nil {
			indices = append(indices, index)
		}
		wire.PutBuffer(payload)
	}
	c.mu.Lock()
	c.indices = append(c.indices, indices)
	c.mu.Unlock()
	return c.Conn.Write(b)
}

// TestMuxChallengesShareWrites: on one P, two streams whose replies
// arrive in one read send their next challenges in one Write — the
// challenge that starts the Write first yields once to the sibling whose
// reply is delivered but not yet taken — and each stream still gets
// exactly its own segment, with no Write carrying two frames of one
// stream. The mirror of TestProverServerBatchesReadyReplies. It runs on
// loopback TCP: a pipe's Write waits for the peer's read, so the replies
// would arrive while the previous Write still held the writer's turn.
func TestMuxChallengesShareWrites(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const rounds = 20 // pairs after the first, whose challenges have no reply to wait for
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	// The peer reads the challenges two at a time and answers each pair
	// in one Write.
	peer := make(chan error, 1)
	go func() {
		server, err := lis.Accept()
		if err != nil {
			peer <- err
			return
		}
		defer server.Close()
		br := bufio.NewReader(server)
		for pair := 0; pair <= rounds; pair++ {
			var replies []byte
			for i := 0; i < 2; i++ {
				_, stream, payload, err := wire.ReadMuxFrame(br)
				if err != nil {
					peer <- err
					return
				}
				_, index, err := wire.SplitSegmentRequest(payload)
				wire.PutBuffer(payload)
				if err != nil {
					peer <- err
					return
				}
				replies, _ = wire.AppendMuxFrame(replies, wire.TypeSegmentResponse, stream, []byte{byte(index)})
			}
			if _, err := server.Write(replies); err != nil {
				peer <- err
				return
			}
		}
		peer <- nil
	}()
	client, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	log := &challengeLog{Conn: client}
	conn := NewMuxProverConn(log)
	defer conn.Close()
	// Stream g asks for the indices of parity g.
	errc := make(chan error, 2)
	for g := uint64(0); g < 2; g++ {
		go func(g uint64) {
			for round := uint64(0); round <= rounds; round++ {
				i := 2*round + g
				seg, err := conn.GetSegment(context.Background(), "f", i)
				if err == nil && (len(seg) != 1 || seg[0] != byte(i)) {
					err = fmt.Errorf("challenge %d got segment %v", i, seg)
				}
				if err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}(g)
	}
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	if err := <-peer; err != nil {
		t.Fatal(err)
	}
	shared := 0
	for _, w := range log.indices {
		if len(w) > 2 || len(w) == 2 && w[0]%2 == w[1]%2 {
			t.Fatalf("one Write carried challenges %v: two of one stream", w)
		}
		if len(w) == 2 {
			shared++
		}
	}
	// As for the prover's replies, the global queue a yield parks the
	// flusher on is sometimes run first, so not every pair shares.
	if shared < 3*rounds/4 {
		t.Fatalf("%d of %d pairs of ready challenges shared one Write (%v)", shared, rounds, log.indices)
	}
}

// TestMuxCancelledReplyLeavesNoYield: a round that gives up as its reply
// is delivered drains that reply on its way out, and a failed connection
// counts no reply as waiting, so neither leaves the writer a sibling to
// yield to: a lone challenge then leaves in its own Write before any
// other goroutine runs, as in TestMuxChallengesNeverWait.
func TestMuxCancelledReplyLeavesNoYield(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const withheld = 100 // the prover never answers these indices
	var (
		log      *writeLog
		runnable chan struct{} // closed by a goroutine started just before the lone challenge
		early    bool          // the lone challenge was written after that goroutine ran
	)
	conn, seen := pipeProverOn(t, withheld, func(c net.Conn) net.Conn {
		log = &writeLog{Conn: c, onWrite: func() {
			select {
			case <-runnable:
				early = true
			default:
			}
		}}
		return log
	})
	// The round's select picks at random between its delivered reply and
	// its cancelled context; repeat until it takes the cancel.
	cancelled := false
	for i := uint64(0); i < 64 && !cancelled; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		errc := make(chan error, 1)
		go func(i uint64) {
			_, err := conn.GetSegment(ctx, "f", withheld+i)
			errc <- err
		}(i)
		id := <-seen
		cancel()
		// On one P the round has not run since the cancel, so its
		// stream is still pending and takes this reply.
		if !conn.dispatch(id, muxMsg{typ: wire.TypeSegmentResponse, payload: []byte{byte(i)}}) {
			t.Fatal("dispatch to a live stream failed the connection")
		}
		err := <-errc
		if cancelled = errors.Is(err, context.Canceled); !cancelled && err != nil {
			t.Fatal(err)
		}
	}
	if !cancelled {
		t.Fatal("no round took its cancel over its delivered reply")
	}
	before := len(log.writes())
	ch := make(chan struct{})
	runnable = ch
	go close(ch)
	if seg, err := conn.GetSegment(context.Background(), "f", 1); err != nil || len(seg) != 1 || seg[0] != 1 {
		t.Fatalf("lone challenge: %v, %v", seg, err)
	}
	if early {
		t.Fatalf("the lone challenge let another goroutine run before its Write (%d replies counted ready)", conn.ready.Load())
	}
	if writes := log.writes()[before:]; len(writes) != 1 || writes[0] != challengeLen() {
		t.Fatalf("the lone challenge took Writes %v, want one %d-byte Write", writes, challengeLen())
	}

	// A reply delivered but not yet taken when the connection fails
	// leaves nothing to yield for, before or after its owner lets it go.
	id, reply, err := conn.issue()
	if err != nil {
		t.Fatal(err)
	}
	if !conn.dispatch(id, muxMsg{typ: wire.TypeSegmentResponse, payload: []byte{0}}) || !conn.w.yield() {
		t.Fatal("a delivered reply does not count as waiting")
	}
	conn.fail(errInjected)
	if conn.w.yield() {
		t.Fatal("a failed connection's writer would yield")
	}
	conn.cancel(id, reply)
	if n := conn.ready.Load(); n != 0 {
		t.Fatalf("%d replies counted ready on a failed connection, want 0", n)
	}
}

// TestProverServerBoundsQueuedReplies: while a segment reply's Write is
// stuck on a peer that reads nothing, the refusals the read loop answers
// unknown frames with queue behind it only until about maxWriteBuf is queued; then the read
// loop stops, as TCP backpressure would stop it, instead of letting the
// queue grow with every request read.
func TestProverServerBoundsQueuedReplies(t *testing.T) {
	var (
		rc  *readCount
		log *writeLog
	)
	client := serveOnPipe(t, &ProverServer{Provider: indexProvider{}}, func(c net.Conn) net.Conn {
		rc = &readCount{Conn: c}
		log = &writeLog{Conn: rc}
		return log
	})
	if err := muxHandshake(client); err != nil {
		t.Fatal(err)
	}
	req, _ := wire.AppendMuxFrame(nil, wire.TypeSegmentRequest, 1, wire.SegmentRequest{FileID: "f"}.Encode())
	if _, err := client.Write(req); err != nil {
		t.Fatal(err)
	}
	// The HelloAck went out; the segment reply's Write is the one stuck.
	waitFor(t, "the segment reply's Write", func() bool { return len(log.writes()) == 2 })
	start := rc.n.Load()
	// Type 4 is unassigned, so each such frame is refused inline.
	unknown, _ := wire.AppendMuxFrame(nil, 4, 2, nil)
	refusal, _ := wire.AppendMuxFrame(nil, wire.TypeError, 2, []byte("unknown frame type"))
	// The server may queue maxWriteBuf plus one refusal, answer one more
	// and hold a read buffer of frames not yet parsed.
	limit := int64((maxWriteBuf/len(refusal)+2)*len(unknown) + muxReadBuf)
	burst := bytes.Repeat(unknown, 2*int(limit)/len(unknown))
	go client.Write(burst) // blocks once the read loop stops; the cleanup's Close ends it
	last := int64(-1)
	for still := 0; still < 20; time.Sleep(10 * time.Millisecond) {
		if n := rc.n.Load() - start; n == last {
			still++
		} else {
			last, still = n, 0
		}
	}
	if last > limit {
		t.Fatalf("the read loop took %d bytes of frames while its replies went unread, want at most %d", last, limit)
	}
	if n := len(log.writes()); n != 2 {
		t.Fatalf("%d server Writes, want 2: the queued refusals wait for the stuck one", n)
	}
}

// TestProverServerAnswersOversizedReply: a segment too large for a frame
// ends its round at once with the remote error naming the limit, and the
// next round on the same connection succeeds.
func TestProverServerAnswersOversizedReply(t *testing.T) {
	addr, stop := startServer(t, indexProvider{oversized: 5}, false)
	defer stop()
	conn := dialMux(t, addr)
	defer conn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err := conn.GetSegment(ctx, "f", 5)
	if !errors.Is(err, wire.ErrRemote) || !strings.Contains(err.Error(), wire.ErrFrameTooLarge.Error()) {
		t.Fatalf("oversized reply: %v, want a remote frame-too-large error", err)
	}
	if seg, err := conn.GetSegment(ctx, "f", 6); err != nil || len(seg) != 1 || seg[0] != 6 {
		t.Fatalf("round after the oversized reply: %v, %v", seg, err)
	}
	if !conn.Healthy() {
		t.Fatal("an oversized reply failed the connection")
	}
}
