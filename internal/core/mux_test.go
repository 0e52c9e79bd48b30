package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/crypt"
	"repro/internal/geo"
	"repro/internal/gps"
	"repro/internal/wire"
)

// dialMux connects to addr over the mux transport.
func dialMux(t *testing.T, addr string) *MuxProverConn {
	t.Helper()
	mc, err := DialMuxProver(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return mc
}

func TestMuxEndToEndAudit(t *testing.T) {
	enc, ef, site := tcpFixture(t)
	addr, stop := startServer(t, &cloud.HonestProvider{Site: site}, false)
	defer stop()
	conn := dialMux(t, addr)
	defer conn.Close()

	signer, _ := crypt.NewSigner()
	verifier, err := NewVerifier(signer, &gps.Receiver{True: geo.Brisbane}, nil)
	if err != nil {
		t.Fatal(err)
	}
	policy := DefaultPolicy(cloud.SLA{Center: geo.Brisbane, RadiusKm: 100})
	policy.TMax = 250 * time.Millisecond
	tpa, err := NewTPA(enc, signer.Public(), policy)
	if err != nil {
		t.Fatal(err)
	}
	req, err := tpa.NewRequest(ef.FileID, ef.Layout, 12)
	if err != nil {
		t.Fatal(err)
	}
	st, err := verifier.RunAudit(context.Background(), req, conn)
	if err != nil {
		t.Fatal(err)
	}
	rep := tpa.VerifyAudit(req, ef.Layout, st)
	if !rep.Accepted {
		t.Fatalf("mux audit rejected: %s", rep.Reason())
	}
	if rep.SegmentsOK != 12 {
		t.Fatalf("segments ok %d", rep.SegmentsOK)
	}
	for i, r := range st.Transcript.Rounds {
		if r.RTT <= 0 {
			t.Fatalf("round %d RTT %v", i, r.RTT)
		}
	}
}

func TestMuxConcurrentStreamsOneConn(t *testing.T) {
	_, ef, site := tcpFixture(t)
	addr, stop := startServer(t, &cloud.HonestProvider{Site: site}, false)
	defer stop()
	conn := dialMux(t, addr)
	defer conn.Close()

	// Many goroutines exchange on the same connection; under -race this
	// also proves the demux bookkeeping is clean.
	const goroutines = 16
	const perG = 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				idx := uint64((g*perG + i) % int(ef.Layout.Segments))
				seg, err := conn.GetSegment(context.Background(), ef.FileID, idx)
				if err != nil {
					errs <- err
					return
				}
				if len(seg) != ef.Layout.SegmentSize() {
					errs <- errors.New("wrong segment size")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if !conn.Healthy() {
		t.Fatal("conn unhealthy after concurrent streams")
	}
}

// stallProvider delays one specific index long enough to outlive a
// cancelled context, leaving every other index fast.
type stallProvider struct {
	cloud.Provider
	stallIndex int64
	stall      time.Duration
}

func (p *stallProvider) FetchSegment(fileID string, i int64) ([]byte, time.Duration, error) {
	data, _, err := p.Provider.FetchSegment(fileID, i)
	if i == p.stallIndex {
		return data, p.stall, err
	}
	return data, 0, err
}

func TestMuxCancelledStreamDoesNotPoisonConn(t *testing.T) {
	_, ef, site := tcpFixture(t)
	prov := &stallProvider{
		Provider:   &cloud.HonestProvider{Site: site},
		stallIndex: 3,
		stall:      400 * time.Millisecond,
	}
	addr, stop := startServer(t, prov, true)
	defer stop()
	conn := dialMux(t, addr)
	defer conn.Close()

	// Stream A hits the stalled index and is cancelled mid-flight.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := conn.GetSegment(ctx, ef.FileID, 3)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stalled stream returned %v", err)
	}
	if el := time.Since(start); el > 300*time.Millisecond {
		t.Fatalf("cancelled stream took %v, not prompt", el)
	}

	// The defining mux property: the cancelled stream leaves the
	// connection and its sibling streams fully serviceable.
	if !conn.Healthy() {
		t.Fatal("cancelled stream poisoned the connection")
	}
	if _, err := conn.GetSegment(context.Background(), ef.FileID, 0); err != nil {
		t.Fatalf("sibling exchange after cancellation: %v", err)
	}
	// Even once the stalled response finally lands (as a tombstoned late
	// frame), the connection keeps working.
	time.Sleep(500 * time.Millisecond)
	if !conn.Healthy() {
		t.Fatal("late tombstoned frame killed the connection")
	}
	if _, err := conn.GetSegment(context.Background(), ef.FileID, 1); err != nil {
		t.Fatalf("exchange after late frame: %v", err)
	}
}

// TestMuxPingAndCancel round-trips the cheapest exchange the transport
// has, an empty frame of an unassigned type that the prover refuses
// inline on its own stream, and checks that an exchange cancelled before
// it is sent fails at once without poisoning the connection.
func TestMuxPingAndCancel(t *testing.T) {
	_, _, site := tcpFixture(t)
	addr, stop := startServer(t, &cloud.HonestProvider{Site: site}, false)
	defer stop()
	conn := dialMux(t, addr)
	defer conn.Close()
	const unassigned = 4
	ping := func(ctx context.Context) (time.Duration, error) {
		start := time.Now()
		msg, err := conn.exchange(ctx, unassigned, nil, nil)
		if err != nil {
			return 0, err
		}
		if msg.typ != wire.TypeError {
			return 0, fmt.Errorf("unassigned frame answered with type %d", msg.typ)
		}
		return time.Since(start), nil
	}
	rtt, err := ping(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rtt <= 0 || rtt > time.Second {
		t.Fatalf("ping rtt %v", rtt)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ping(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ping: %v", err)
	}
	// A cancelled probe never poisons the connection.
	if !conn.Healthy() {
		t.Fatal("cancelled ping poisoned mux conn")
	}
	if _, err := ping(context.Background()); err != nil {
		t.Fatalf("ping after cancel: %v", err)
	}
}

func TestMuxCloseFailsInflight(t *testing.T) {
	_, ef, site := tcpFixture(t)
	prov := &stallProvider{
		Provider:   &cloud.HonestProvider{Site: site},
		stallIndex: 0,
		stall:      time.Second,
	}
	addr, stop := startServer(t, prov, true)
	defer stop()
	conn := dialMux(t, addr)
	done := make(chan error, 1)
	go func() {
		_, err := conn.GetSegment(context.Background(), ef.FileID, 0)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	conn.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("in-flight exchange survived Close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not unblock in-flight exchange")
	}
	if conn.Healthy() {
		t.Fatal("closed conn still healthy")
	}
	if _, err := conn.GetSegment(context.Background(), ef.FileID, 1); err == nil {
		t.Fatal("exchange on closed conn succeeded")
	}
}

// TestMuxServerRefusesNonHello: a connection whose first frame is not a
// well-formed Hello offering at least MuxVersion gets exactly one
// TypeError and is closed — there is no other protocol to fall back to.
// The prover and the verifier daemon share the handshake, so both refuse
// alike.
func TestMuxServerRefusesNonHello(t *testing.T) {
	_, ef, site := tcpFixture(t)
	proverAddr, stopProver := startServer(t, &cloud.HonestProvider{Site: site}, false)
	defer stopProver()
	daemonAddr, stopDaemon := startVerifierd(t, nil) // no connection gets as far as an audit
	defer stopDaemon()
	first := map[string]struct {
		typ     byte
		payload []byte
	}{
		"segment request": {wire.TypeSegmentRequest, wire.SegmentRequest{FileID: ef.FileID}.Encode()},
		"audit request":   {wire.TypeAuditRequest, EncodeAuditRequest(AuditRequest{FileID: ef.FileID, NumSegments: 8, K: 2, Nonce: []byte{1}})},
		"unassigned type": {4, nil},
		"old hello":       {wire.TypeHello, wire.Hello{MaxVersion: wire.MuxVersion - 1}.Encode()},
		"malformed hello": {wire.TypeHello, []byte("GPMX")},
	}
	for server, addr := range map[string]string{"prover": proverAddr, "daemon": daemonAddr} {
		for name, f := range first {
			raw, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			if err := wire.WriteMuxFrame(raw, f.typ, 0, f.payload); err != nil {
				t.Fatal(err)
			}
			raw.SetReadDeadline(time.Now().Add(2 * time.Second))
			typ, _, payload, err := wire.ReadMuxFrame(raw)
			if err != nil || typ != wire.TypeError {
				t.Fatalf("%s, %s: got type %d, %v; want one TypeError", server, name, typ, err)
			}
			wire.PutBuffer(payload)
			if _, _, _, err := wire.ReadMuxFrame(raw); !errors.Is(err, io.EOF) {
				t.Fatalf("%s, %s: connection not closed after the refusal: %v", server, name, err)
			}
			raw.Close()
		}
	}
}

// TestMuxServerDropsSilentClients: a client that connects and never sends
// its Hello is dropped after helloTimeout by both servers. Without that,
// Concurrency such clients fill a ProverServer's semaphore and stall its
// accept loop, and Close never returns because Serve waits for them. A
// real client dialled behind the silent ones is served once they go.
func TestMuxServerDropsSilentClients(t *testing.T) {
	_, ef, site := tcpFixture(t)
	const conc = 2
	proverAddr, stopProver := serveProver(t, &ProverServer{Provider: &cloud.HonestProvider{Site: site}, Concurrency: conc})
	defer stopProver()
	daemonAddr, stopDaemon := startVerifierd(t, nil) // no audit reaches it
	defer stopDaemon()

	var wg sync.WaitGroup
	for server, addr := range map[string]string{"prover": proverAddr, "daemon": daemonAddr} {
		server, addr := server, addr
		wg.Add(1)
		go func() {
			defer wg.Done()
			silent := make([]net.Conn, conc)
			for i := range silent {
				raw, err := net.Dial("tcp", addr)
				if err != nil {
					t.Errorf("%s: %v", server, err)
					return
				}
				defer raw.Close()
				silent[i] = raw
			}
			mc, err := DialMuxProver(addr, 3*helloTimeout)
			if err != nil {
				t.Errorf("%s: dial behind %d silent clients: %v", server, conc, err)
				return
			}
			defer mc.Close()
			// The daemon serves no segments: it refuses the request on its
			// stream, which completes the exchange all the same.
			_, err = mc.GetSegment(context.Background(), ef.FileID, 0)
			if server == "daemon" && errors.Is(err, wire.ErrRemote) {
				err = nil
			}
			if err != nil {
				t.Errorf("%s: %v", server, err)
			}
			for i, raw := range silent {
				raw.SetReadDeadline(time.Now().Add(2 * helloTimeout))
				if _, err := raw.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
					t.Errorf("%s: silent client %d not dropped: %v", server, i, err)
				}
			}
		}()
	}
	wg.Wait()
}

// refusingPeer accepts connections, reads the Hello and answers with
// reply (nothing when reply is nil), then holds the connection open.
func refusingPeer(t *testing.T, replyType byte, reply []byte) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop); lis.Close(); wg.Wait() })
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				_, _, hello, err := wire.ReadMuxFrame(conn)
				if err != nil {
					return
				}
				wire.PutBuffer(hello)
				if reply != nil && wire.WriteMuxFrame(conn, replyType, 0, reply) != nil {
					return
				}
				<-stop
			}()
		}
	}()
	return lis.Addr().String()
}

// TestMuxDialRefusedByPeer: a peer that answers the Hello with anything
// but a HelloAck naming MuxVersion is refused with ErrMuxRefused, a peer
// that never answers runs into the dial timeout, and both surface through
// ProverPool.Get and end a scheduled audit as OutcomeError after its
// bounded retries — one dial per attempt, no hang.
func TestMuxDialRefusedByPeer(t *testing.T) {
	f := newSchedFixture(t)
	peers := map[string]struct {
		addr    string
		refused bool
	}{
		"error reply": {refusingPeer(t, wire.TypeError, wire.ErrorMessage{Msg: "unknown frame type"}.Encode()), true},
		"old version": {refusingPeer(t, wire.TypeHelloAck, wire.HelloAck{Version: wire.MuxVersion - 1}.Encode()), true},
		"silent":      {refusingPeer(t, 0, nil), false},
	}
	for name, peer := range peers {
		if _, err := DialMuxProver(peer.addr, 100*time.Millisecond); err == nil || errors.Is(err, ErrMuxRefused) != peer.refused {
			t.Fatalf("%s: DialMuxProver returned %v (want ErrMuxRefused: %v)", name, err, peer.refused)
		}
		pool := &ProverPool{DialTimeout: 100 * time.Millisecond}
		defer pool.Close()
		if _, _, err := pool.Get(peer.addr); err == nil || errors.Is(err, ErrMuxRefused) != peer.refused {
			t.Fatalf("%s: pool.Get returned %v (want ErrMuxRefused: %v)", name, err, peer.refused)
		}
		sched := NewScheduler(SchedulerConfig{Workers: 2, ProverWindow: 2, Timeout: 5 * time.Second, Retries: 1})
		sched.RegisterTenant("t1", f.tpa)
		sched.RegisterProver("p", &PooledRunner{Verifier: f.verifier, Addr: peer.addr, Pool: pool})
		dialsBefore := pool.Dials()
		for _, v := range sched.RunEpoch(context.Background(), []AuditTask{f.task("t1", "p", 2)}) {
			if v.Outcome != OutcomeError {
				t.Fatalf("%s: outcome %v (%s), want error", name, v.Outcome, v.Err)
			}
		}
		if d := pool.Dials() - dialsBefore; d != 2 {
			t.Fatalf("%s: audit with one retry dialed %d times, want 2", name, d)
		}
	}
}

// rawMuxConn negotiates the mux protocol by hand so tests can inject
// arbitrary frames.
func rawMuxConn(t *testing.T, addr string) net.Conn {
	t.Helper()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	hello := wire.Hello{MaxVersion: wire.MuxVersion}
	if err := wire.WriteMuxFrame(raw, wire.TypeHello, 0, hello.Encode()); err != nil {
		t.Fatal(err)
	}
	typ, _, payload, err := wire.ReadMuxFrame(raw)
	if err != nil {
		t.Fatal(err)
	}
	defer wire.PutBuffer(payload)
	if typ != wire.TypeHelloAck {
		t.Fatalf("hello reply type %d", typ)
	}
	if _, err := wire.DecodeHelloAck(payload); err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestMuxServerUnknownTypePerStreamError(t *testing.T) {
	_, _, site := tcpFixture(t)
	addr, stop := startServer(t, &cloud.HonestProvider{Site: site}, false)
	defer stop()
	raw := rawMuxConn(t, addr)
	defer raw.Close()
	if err := wire.WriteMuxFrame(raw, 99, 5, nil); err != nil {
		t.Fatal(err)
	}
	typ, stream, payload, err := wire.ReadMuxFrame(raw)
	if err != nil {
		t.Fatal(err)
	}
	wire.PutBuffer(payload)
	if typ != wire.TypeError || stream != 5 {
		t.Fatalf("got type %d stream %d", typ, stream)
	}
}

func TestMuxClientRejectsUnknownStream(t *testing.T) {
	// A server that answers on a stream the client never issued proves
	// the two sides disagree about framing; the client must kill the
	// connection rather than mis-deliver frames.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	served := make(chan struct{})
	go func() {
		defer close(served)
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if !acceptMuxHello(conn) {
			return
		}
		// Answer whatever arrives on a wildly different stream ID.
		_, stream, payload2, err := wire.ReadMuxFrame(conn)
		if err != nil {
			return
		}
		wire.PutBuffer(payload2)
		_ = wire.WriteMuxFrame(conn, wire.TypeSegmentResponse, stream+1000, []byte("stray"))
	}()
	mc := dialMux(t, lis.Addr().String())
	defer mc.Close()
	_, err = mc.GetSegment(context.Background(), "f", 0)
	if err == nil {
		t.Fatal("exchange against misbehaving server succeeded")
	}
	<-served
	if mc.Healthy() {
		t.Fatal("conn still healthy after unknown-stream frame")
	}
}

func TestMuxConcurrentAudits(t *testing.T) {
	// Whole audits — k serial rounds each — interleaved on one connection.
	enc, ef, site := tcpFixture(t)
	addr, stop := startServer(t, &cloud.HonestProvider{Site: site}, false)
	defer stop()
	conn := dialMux(t, addr)
	defer conn.Close()

	signer, _ := crypt.NewSigner()
	verifier, err := NewVerifier(signer, &gps.Receiver{True: geo.Brisbane}, nil)
	if err != nil {
		t.Fatal(err)
	}
	policy := DefaultPolicy(cloud.SLA{Center: geo.Brisbane, RadiusKm: 100})
	policy.TMax = time.Second
	tpa, err := NewTPA(enc, signer.Public(), policy)
	if err != nil {
		t.Fatal(err)
	}
	const audits = 8
	var wg sync.WaitGroup
	errs := make(chan error, audits)
	for a := 0; a < audits; a++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, err := tpa.NewRequest(ef.FileID, ef.Layout, 10)
			if err != nil {
				errs <- err
				return
			}
			st, err := verifier.RunAudit(context.Background(), req, conn)
			if err != nil {
				errs <- err
				return
			}
			if rep := tpa.VerifyAudit(req, ef.Layout, st); !rep.Accepted {
				errs <- errors.New("audit rejected: " + rep.Reason())
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

// pipeProver is a scripted prover on the far end of a net.Pipe (no
// handshake: the client side is wrapped with NewMuxProverConn). It
// answers a segment request with the requested index as payload, so an
// exchange can tell its own reply from a sibling's; indices at or above
// withholdFrom are never answered. Every stream ID it sees goes to seen.
func pipeProver(t *testing.T, withholdFrom uint64) (*MuxProverConn, <-chan uint32) {
	t.Helper()
	return pipeProverOn(t, withholdFrom, nil)
}

// pipeProverOn is pipeProver with the verifier's end of the pipe wrapped
// by wrap, when set.
func pipeProverOn(t *testing.T, withholdFrom uint64, wrap func(net.Conn) net.Conn) (*MuxProverConn, <-chan uint32) {
	t.Helper()
	client, server := net.Pipe()
	seen := make(chan uint32, 2*maxTombstones)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			_, stream, payload, err := wire.ReadMuxFrame(server)
			if err != nil {
				return
			}
			_, index, derr := wire.SplitSegmentRequest(payload)
			wire.PutBuffer(payload)
			seen <- stream
			if derr != nil || index >= withholdFrom {
				continue
			}
			if wire.WriteMuxFrame(server, wire.TypeSegmentResponse, stream, []byte{byte(index)}) != nil {
				return
			}
		}
	}()
	var cc net.Conn = client
	if wrap != nil {
		cc = wrap(client)
	}
	conn := NewMuxProverConn(cc)
	t.Cleanup(func() { conn.Close(); server.Close(); <-done })
	return conn, seen
}

// cancelledRound runs one GetSegment the prover withholds, cancelling it
// once the request is known to have reached the prover.
func cancelledRound(t *testing.T, conn *MuxProverConn, seen <-chan uint32, index uint64) uint32 {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		_, err := conn.GetSegment(ctx, "f", index)
		errc <- err
	}()
	id := <-seen
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("withheld round returned %v, want context.Canceled", err)
	}
	return id
}

// TestMuxTombstonesBounded: a prover that never answers cancelled streams
// cannot grow the verifier's tombstone set past maxTombstones — the
// connection fails instead (so the pool redials), and only that one.
func TestMuxTombstonesBounded(t *testing.T) {
	const withhold = 100
	flooded, seen := pipeProver(t, withhold)
	sibling, _ := pipeProver(t, withhold)
	tombs := func() int {
		flooded.mu.Lock()
		defer flooded.mu.Unlock()
		return len(flooded.tomb)
	}
	for i := 0; i < maxTombstones; i++ {
		cancelledRound(t, flooded, seen, withhold)
	}
	if n := tombs(); n != maxTombstones || !flooded.Healthy() {
		t.Fatalf("at the bound: %d tombstones, healthy=%v", n, flooded.Healthy())
	}
	cancelledRound(t, flooded, seen, withhold)
	if n := tombs(); n > maxTombstones {
		t.Fatalf("%d tombstones, over the bound %d", n, maxTombstones)
	}
	if flooded.Healthy() {
		t.Fatal("connection still healthy past the tombstone bound")
	}
	if _, err := flooded.GetSegment(context.Background(), "f", 0); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("exchange past the bound returned %v, want ErrConnClosed", err)
	}
	if seg, err := sibling.GetSegment(context.Background(), "f", 1); err != nil || seg[0] != 1 {
		t.Fatalf("sibling connection affected: %v %v", seg, err)
	}
}

// TestMuxStreamIDWrap: stream IDs wrap past MaxUint32 without ever
// handing out 0, an ID whose reply is still pending, or a tombstoned one,
// and every exchange still receives its own reply.
func TestMuxStreamIDWrap(t *testing.T) {
	const withhold = 100
	conn, seen := pipeProver(t, withhold)
	seed := func(id uint32) {
		conn.mu.Lock()
		conn.nextID = id
		conn.mu.Unlock()
	}
	round := func(index uint64, wantID uint32) {
		t.Helper()
		seg, err := conn.GetSegment(context.Background(), "f", index)
		if err != nil || len(seg) != 1 || seg[0] != byte(index) {
			t.Fatalf("round %d got %v, %v", index, seg, err)
		}
		if id := <-seen; id != wantID {
			t.Fatalf("round %d rode stream %d, want %d", index, id, wantID)
		}
	}

	// A live stream on the last ID before the wrap, its reply withheld.
	seed(math.MaxUint32 - 1)
	liveCtx, liveCancel := context.WithCancel(context.Background())
	defer liveCancel()
	liveDone := make(chan error, 1)
	go func() {
		_, err := conn.GetSegment(liveCtx, "f", withhold)
		liveDone <- err
	}()
	if id := <-seen; id != math.MaxUint32 {
		t.Fatalf("live stream rode %d, want MaxUint32", id)
	}
	round(1, 1) // wraps: 0 is skipped
	if id := cancelledRound(t, conn, seen, withhold); id != 2 {
		t.Fatalf("cancelled stream rode %d, want 2", id)
	}
	// A full lap later the counter comes around to the same IDs: the live
	// stream's and the tombstoned one must both be stepped over.
	seed(math.MaxUint32 - 1)
	round(3, 1) // skips MaxUint32 (pending) and 0
	round(4, 3) // skips 2 (tombstoned)
	if !conn.Healthy() {
		t.Fatal("wrap killed the connection")
	}
	liveCancel()
	if err := <-liveDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("live stream ended with %v", err)
	}
}

// TestMuxRequestFrameBytes pins what GetSegment puts on the wire: the v2
// header and u16 id length ‖ id ‖ u64 index, in one write — the bytes a
// prover built from any earlier commit parses.
func TestMuxRequestFrameBytes(t *testing.T) {
	client, server := net.Pipe()
	conn := NewMuxProverConn(client)
	defer func() { conn.Close(); server.Close() }()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go conn.GetSegment(ctx, "tcp-file", 0x0102030405060708) // never answered, cancelled at exit: only the request matters
	want := []byte{
		0, 0, 0, 18, wire.TypeSegmentRequest, 0, 0, 0, 1, // length, type, stream 1
		0, 8, 't', 'c', 'p', '-', 'f', 'i', 'l', 'e', 1, 2, 3, 4, 5, 6, 7, 8,
	}
	got := make([]byte, 64)
	n, err := server.Read(got) // a pipe Read returns one Write's bytes: the frame must arrive whole
	if err != nil || !bytes.Equal(got[:n], want) {
		t.Fatalf("request frame %x (%v), want %x", got[:n], err, want)
	}
	ref, err := wire.AppendMuxFrame(nil, wire.TypeSegmentRequest, 1, wire.SegmentRequest{FileID: "tcp-file", Index: 0x0102030405060708}.Encode())
	if err != nil || !bytes.Equal(ref, want) {
		t.Fatalf("AppendMuxFrame over Encode gives %x (%v), want %x", ref, err, want)
	}
}

// TestMuxReplyChannelReuse: serial rounds ride one recycled reply
// channel, and a stream that ended any other way than by receiving its
// reply never gives its channel back — the demux may deliver into it as
// the caller gives up, and the next stream would read that stale reply.
// A reply that lost that race is drained by the cancel, so it no longer
// counts as ready.
func TestMuxReplyChannelReuse(t *testing.T) {
	conn, _ := pipeProver(t, 100)
	free := func() int {
		conn.mu.Lock()
		defer conn.mu.Unlock()
		return len(conn.free)
	}
	for i := 0; i < 5; i++ {
		if seg, err := conn.GetSegment(context.Background(), "f", uint64(i)); err != nil || seg[0] != byte(i) {
			t.Fatalf("round %d: %v %v", i, seg, err)
		}
	}
	if n := free(); n != 1 {
		t.Fatalf("%d free reply channels after serial rounds, want 1", n)
	}
	// The losing side of the race: the reply lands, then the caller cancels.
	id, ch, err := conn.issue()
	if err != nil {
		t.Fatal(err)
	}
	if !conn.dispatch(id, muxMsg{typ: wire.TypeSegmentResponse, payload: []byte("stale")}) {
		t.Fatal("dispatch to a live stream failed the connection")
	}
	conn.cancel(id, ch)
	if n := free(); n != 0 {
		t.Fatalf("abandoned stream's channel went back on the free list (%d free)", n)
	}
	if len(ch) != 0 || conn.ready.Load() != 0 {
		t.Fatalf("cancel left %d stale replies buffered and %d counted ready, want 0 and 0", len(ch), conn.ready.Load())
	}
	if seg, err := conn.GetSegment(context.Background(), "f", 7); err != nil || len(seg) != 1 || seg[0] != 7 {
		t.Fatalf("round after an abandoned stream got %q, %v", seg, err)
	}
}

// TestMuxRoundAllocationBudget: a steady-state round allocates the
// segment slice on each side — the prover's fetch, and the verifier's
// reply read that the transcript keeps — and the framing nothing. Both
// ends run in this process, so the count covers both.
func TestMuxRoundAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	_, ef, site := tcpFixture(t)
	addr, stop := startServer(t, &cloud.HonestProvider{Site: site}, false)
	defer stop()
	conn := dialMux(t, addr)
	defer conn.Close()
	ctx := context.Background()
	round := func() {
		if _, err := conn.GetSegment(ctx, ef.FileID, 3); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		round() // the worker, the write scratches and the reply channel now exist
	}
	const budget = 3 // measured: 2
	if n := testing.AllocsPerRun(1000, round); n > budget {
		t.Fatalf("a round allocates %.1f objects, budget %d", n, budget)
	}
}
