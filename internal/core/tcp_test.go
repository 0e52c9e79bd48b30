package core

import (
	"bytes"
	"context"
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/crypt"
	"repro/internal/disk"
	"repro/internal/geo"
	"repro/internal/gps"
	"repro/internal/por"
	"repro/internal/wire"
)

// startServer runs a ProverServer on loopback and returns its address and
// a shutdown func.
func startServer(t *testing.T, provider cloud.Provider, simulate bool) (string, func()) {
	t.Helper()
	return serveProver(t, &ProverServer{Provider: provider, SimulateServiceTime: simulate})
}

// serveProver runs srv on loopback and returns its address and a
// shutdown func.
func serveProver(t *testing.T, srv *ProverServer) (string, func()) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(lis) // returns on Close
	}()
	return lis.Addr().String(), func() {
		_ = srv.Close()
		<-done
	}
}

func tcpFixture(t *testing.T) (*por.Encoder, *por.EncodedFile, *cloud.Site) {
	t.Helper()
	enc := por.NewEncoder([]byte("tcp-master"))
	file := bytes.Repeat([]byte("tcp-audit-data-"), 1500)
	ef, err := enc.Encode("tcp-file", file)
	if err != nil {
		t.Fatal(err)
	}
	site := cloud.NewSite(cloud.DataCenter{
		Name: "local", Position: geo.Brisbane, Disk: disk.WD2500JD,
	}, 5)
	site.Store(ef.FileID, ef.Layout, ef.Data)
	return enc, ef, site
}

// delayedConn sleeps before and after every round, the way a longer wire
// would.
type delayedConn struct {
	ProverConn
	oneWay time.Duration
}

func (c delayedConn) GetSegment(ctx context.Context, fileID string, index uint64) ([]byte, error) {
	time.Sleep(c.oneWay)
	seg, err := c.ProverConn.GetSegment(ctx, fileID, index)
	time.Sleep(c.oneWay)
	return seg, err
}

func TestTCPInjectedDelayTripsTiming(t *testing.T) {
	enc, ef, site := tcpFixture(t)
	addr, stop := startServer(t, &cloud.HonestProvider{Site: site}, false)
	defer stop()
	conn := dialMux(t, addr)
	defer conn.Close()

	signer, _ := crypt.NewSigner()
	verifier, _ := NewVerifier(signer, &gps.Receiver{True: geo.Brisbane}, nil)
	policy := DefaultPolicy(cloud.SLA{Center: geo.Brisbane, RadiusKm: 100})
	policy.TMax = 30 * time.Millisecond
	tpa, _ := NewTPA(enc, signer.Public(), policy)

	req, _ := tpa.NewRequest(ef.FileID, ef.Layout, 4)
	// 40 ms extra per round trip.
	st, err := verifier.RunAudit(context.Background(), req, delayedConn{conn, 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	rep := tpa.VerifyAudit(req, ef.Layout, st)
	if rep.Accepted || rep.TimingOK {
		t.Fatalf("delayed connection passed timing: max RTT %v", rep.MaxRTT)
	}
}

func TestTCPUnknownFileReturnsRemoteError(t *testing.T) {
	_, _, site := tcpFixture(t)
	addr, stop := startServer(t, &cloud.HonestProvider{Site: site}, false)
	defer stop()
	conn := dialMux(t, addr)
	defer conn.Close()
	if _, err := conn.GetSegment(context.Background(), "ghost-file", 0); !errors.Is(err, wire.ErrRemote) {
		t.Fatalf("got %v, want ErrRemote", err)
	}
	// The connection must remain usable after a remote error.
	if _, err := conn.GetSegment(context.Background(), "tcp-file", 0); err != nil {
		t.Fatalf("connection dead after error: %v", err)
	}
}

func TestTCPMalformedFrameHandled(t *testing.T) {
	_, ef, site := tcpFixture(t)
	addr, stop := startServer(t, &cloud.HonestProvider{Site: site}, false)
	defer stop()
	raw := rawMuxConn(t, addr)
	defer raw.Close()
	// Garbage segment-request payload: the server must answer TypeError
	// on that stream, not crash or hang, and keep serving the connection.
	exchange := func(stream uint32, payload []byte) byte {
		t.Helper()
		if err := wire.WriteMuxFrame(raw, wire.TypeSegmentRequest, stream, payload); err != nil {
			t.Fatal(err)
		}
		typ, got, reply, err := wire.ReadMuxFrame(raw)
		if err != nil {
			t.Fatal(err)
		}
		wire.PutBuffer(reply)
		if got != stream {
			t.Fatalf("reply on stream %d, want %d", got, stream)
		}
		return typ
	}
	if typ := exchange(7, []byte{0xFF}); typ != wire.TypeError {
		t.Fatalf("frame type %d, want error", typ)
	}
	if typ := exchange(8, wire.SegmentRequest{FileID: ef.FileID}.Encode()); typ != wire.TypeSegmentResponse {
		t.Fatalf("frame type %d after the malformed request, want a segment", typ)
	}
}

func TestTCPSimulatedServiceTime(t *testing.T) {
	_, ef, site := tcpFixture(t)
	addr, stop := startServer(t, &cloud.HonestProvider{Site: site}, true)
	defer stop()
	conn := dialMux(t, addr)
	defer conn.Close()
	start := time.Now()
	if _, err := conn.GetSegment(context.Background(), ef.FileID, 0); err != nil {
		t.Fatal(err)
	}
	// WD2500JD look-up is ≈13.1 ms; the served request must take at
	// least that.
	if el := time.Since(start); el < 13*time.Millisecond {
		t.Fatalf("simulated service time not applied: %v", el)
	}
}

func TestProverServerCloseIdempotent(t *testing.T) {
	_, _, site := tcpFixture(t)
	srv := &ProverServer{Provider: &cloud.HonestProvider{Site: site}}
	if err := srv.Close(); err != nil {
		t.Fatalf("close before serve: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestProverServerConcurrencyCapAndNegative(t *testing.T) {
	_, ef, site := tcpFixture(t)
	// Concurrency < 0 is documented as unlimited and must not panic;
	// a small positive cap must still serve every connection (queued).
	for _, conc := range []int{-1, 1} {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := &ProverServer{Provider: &cloud.HonestProvider{Site: site}, Concurrency: conc}
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = srv.Serve(lis)
		}()
		errc := make(chan error, 3)
		for i := 0; i < 3; i++ {
			go func() {
				conn, err := DialMuxProver(lis.Addr().String(), time.Second)
				if err != nil {
					errc <- err
					return
				}
				defer conn.Close()
				_, err = conn.GetSegment(context.Background(), ef.FileID, 0)
				errc <- err
			}()
		}
		for i := 0; i < 3; i++ {
			if err := <-errc; err != nil {
				t.Fatalf("conc=%d: connection %d: %v", conc, i, err)
			}
		}
		_ = srv.Close()
		<-done
	}
}

// settleGoroutines polls until the process holds at most want goroutines:
// a closed connection's server-side goroutines exit on their own time.
func settleGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, want at most %d\n%s", runtime.NumGoroutine(), want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestProverServerWorkersAreResident: serial rounds are served by one
// parked worker, not a goroutine per frame, and the worker goes when the
// connection does.
func TestProverServerWorkersAreResident(t *testing.T) {
	_, ef, site := tcpFixture(t)
	addr, stop := startServer(t, &cloud.HonestProvider{Site: site}, false)
	defer stop()
	baseline := runtime.NumGoroutine()
	conn := dialMux(t, addr)
	defer conn.Close()
	round := func(i int) {
		t.Helper()
		if _, err := conn.GetSegment(context.Background(), ef.FileID, uint64(i)%uint64(ef.Layout.Segments)); err != nil {
			t.Fatal(err)
		}
	}
	round(0)
	afterFirst := runtime.NumGoroutine()
	if afterFirst <= baseline {
		t.Fatalf("%d goroutines with a connection open, %d before", afterFirst, baseline)
	}
	for i := 1; i <= 1000; i++ {
		round(i)
	}
	if n := runtime.NumGoroutine(); n > afterFirst {
		t.Fatalf("%d goroutines after 1000 serial rounds, %d after the first", n, afterFirst)
	}
	conn.Close()
	settleGoroutines(t, baseline)
}

// rendezvousProvider holds every fetch until `want` of them are in flight
// at once, so a server that served streams one after the other would
// never release any.
type rendezvousProvider struct {
	cloud.Provider
	want int

	mu      sync.Mutex
	waiting int
	all     chan struct{}
}

func (p *rendezvousProvider) FetchSegment(fileID string, i int64) ([]byte, time.Duration, error) {
	p.mu.Lock()
	if p.all == nil {
		p.all = make(chan struct{})
	}
	all := p.all
	if p.waiting++; p.waiting == p.want {
		p.waiting, p.all = 0, nil // re-arm for the next wave
		close(all)
	}
	p.mu.Unlock()
	select {
	case <-all:
		return p.Provider.FetchSegment(fileID, i)
	case <-time.After(5 * time.Second):
		return nil, 0, errors.New("fetches were not served concurrently")
	}
}

// TestProverServerStreamsServedConcurrently: eight streams opened at once
// are all being fetched at once — eight 20 ms look-ups cost one look-up
// time, not eight — on fresh workers and again on the same workers once
// they are resident, whose number is the peak the peer had open.
func TestProverServerStreamsServedConcurrently(t *testing.T) {
	const streams = 8
	_, ef, site := tcpFixture(t)
	addr, stop := startServer(t, &rendezvousProvider{Provider: &cloud.HonestProvider{Site: site}, want: streams}, false)
	defer stop()
	before := runtime.NumGoroutine()
	conn := dialMux(t, addr)
	defer conn.Close()
	wave := func() {
		t.Helper()
		errc := make(chan error, streams)
		for i := 0; i < streams; i++ {
			go func(i int) {
				_, err := conn.GetSegment(context.Background(), ef.FileID, uint64(i))
				errc <- err
			}(i)
		}
		for i := 0; i < streams; i++ {
			if err := <-errc; err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 20; i++ {
		wave()
	}
	// The demux loop, the server's read loop and one worker per stream;
	// the waves' own goroutines are on their way out.
	settleGoroutines(t, before+2+streams)
}

// peakProvider records the most fetches it ever had in flight.
type peakProvider struct {
	cloud.Provider
	inflight, peak atomic.Int32
}

func (p *peakProvider) FetchSegment(fileID string, i int64) ([]byte, time.Duration, error) {
	n := p.inflight.Add(1)
	defer p.inflight.Add(-1)
	for {
		old := p.peak.Load()
		if n <= old || p.peak.CompareAndSwap(old, n) {
			break
		}
	}
	time.Sleep(time.Millisecond) // long enough for every waiting stream to pile up behind the cap
	return p.Provider.FetchSegment(fileID, i)
}

// TestProverServerConcurrencyBoundsFetchesInFlight: with Concurrency 2 a
// connection with eight streams open never has a third fetch in flight.
func TestProverServerConcurrencyBoundsFetchesInFlight(t *testing.T) {
	_, ef, site := tcpFixture(t)
	prov := &peakProvider{Provider: &cloud.HonestProvider{Site: site}}
	addr, stop := serveProver(t, &ProverServer{Provider: prov, Concurrency: 2})
	defer stop()
	conn := dialMux(t, addr)
	defer conn.Close()
	const streams = 8
	errc := make(chan error, streams)
	for g := 0; g < streams; g++ {
		go func(g int) {
			for i := 0; i < 10; i++ {
				if _, err := conn.GetSegment(context.Background(), ef.FileID, uint64(g)); err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}(g)
	}
	for g := 0; g < streams; g++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	if peak := prov.peak.Load(); peak > 2 {
		t.Fatalf("%d fetches in flight under Concurrency 2", peak)
	}
}
