package core

import (
	"bytes"
	"context"
	"errors"
	"math"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cloud"
	"repro/internal/crypt"
	"repro/internal/geo"
	"repro/internal/gps"
	"repro/internal/por"
	"repro/internal/wire"
)

func TestTranscriptCodecRoundTrip(t *testing.T) {
	tr := Transcript{
		FileID:   "tenant/db",
		Nonce:    []byte{1, 2, 3, 4},
		Position: geo.Brisbane,
		Rounds: []AuditRound{
			{Index: 5, Segment: []byte{9, 8, 7}, RTT: 13 * time.Millisecond},
			{Index: 6, Failed: true, RTT: time.Millisecond},
			{Index: 7, Segment: []byte{}, RTT: 0},
		},
	}
	got, err := UnmarshalTranscript(tr.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Marshal(), tr.Marshal()) {
		t.Fatal("re-marshal differs: signatures would break across the wire")
	}
	if got.FileID != tr.FileID || !bytes.Equal(got.Nonce, tr.Nonce) || len(got.Rounds) != 3 {
		t.Fatalf("fields lost: %+v", got)
	}
	if math.Abs(got.Position.LatDeg-tr.Position.LatDeg) > 1e-6 {
		t.Fatalf("position drifted: %v", got.Position)
	}
	if !got.Rounds[1].Failed || got.Rounds[1].RTT != time.Millisecond {
		t.Fatalf("round 1 wrong: %+v", got.Rounds[1])
	}
}

func TestTranscriptCodecRejectsGarbage(t *testing.T) {
	tr := Transcript{FileID: "f", Nonce: []byte{1}, Rounds: []AuditRound{{Index: 1}}}
	good := tr.Marshal()
	for _, bad := range [][]byte{
		nil,
		{1, 2, 3},
		good[:len(good)-1],
		append(append([]byte{}, good...), 0xFF),
	} {
		if _, err := UnmarshalTranscript(bad); err == nil {
			t.Fatalf("garbage of %d bytes accepted", len(bad))
		}
	}
	// Absurd round count must fail fast, not allocate.
	huge := []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := UnmarshalTranscript(huge); err == nil {
		t.Fatal("absurd round count accepted")
	}
}

func TestAuditRequestCodecRoundTrip(t *testing.T) {
	f := func(fileID string, n uint32, k uint8, nonce []byte) bool {
		if fileID == "" || n == 0 || len(nonce) == 0 {
			return true
		}
		kk := int(k)%int(n) + 1
		req := AuditRequest{FileID: fileID, NumSegments: int64(n), K: kk, Nonce: nonce}
		got, err := DecodeAuditRequest(EncodeAuditRequest(req))
		return err == nil && got.FileID == req.FileID && got.NumSegments == req.NumSegments &&
			got.K == req.K && bytes.Equal(got.Nonce, req.Nonce)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeAuditRequest([]byte{1}); err == nil {
		t.Fatal("short request accepted")
	}
	// Invalid semantic content (k=0) must be rejected at decode.
	bad := EncodeAuditRequest(AuditRequest{FileID: "f", NumSegments: 10, K: 0, Nonce: []byte{1}})
	if _, err := DecodeAuditRequest(bad); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestSignedTranscriptCodec(t *testing.T) {
	st := SignedTranscript{
		Transcript: Transcript{FileID: "f", Nonce: []byte{1}, Position: geo.Sydney,
			Rounds: []AuditRound{{Index: 2, Segment: []byte{5}, RTT: time.Millisecond}}},
		Signature: []byte{0xDE, 0xAD},
	}
	got, err := DecodeSignedTranscript(EncodeSignedTranscript(st))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Signature, st.Signature) || got.Transcript.FileID != "f" {
		t.Fatalf("round trip lost data: %+v", got)
	}
	if _, err := DecodeSignedTranscript([]byte{0, 0}); err == nil {
		t.Fatal("garbage accepted")
	}
}

// startVerifierd runs a VerifierServer over runner on loopback and returns
// its address and a shutdown func that waits for every connection's
// audits to have returned.
func startVerifierd(t *testing.T, runner AuditRunner) (string, func()) {
	t.Helper()
	vs := &VerifierServer{Runner: runner}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = vs.Serve(lis)
	}()
	return lis.Addr().String(), func() {
		_ = vs.Close()
		<-done
	}
}

// daemonFixture is a device (signer + verifier) and the one TPA that
// trusts it.
type daemonFixture struct {
	ef       *por.EncodedFile
	site     *cloud.Site
	signer   *crypt.Signer
	verifier *Verifier
	tpa      *TPA
}

func newDaemonFixture(t *testing.T, tmax time.Duration) *daemonFixture {
	t.Helper()
	enc, ef, site := tcpFixture(t)
	signer, err := crypt.NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	verifier, err := NewVerifier(signer, &gps.Receiver{True: geo.Brisbane}, nil)
	if err != nil {
		t.Fatal(err)
	}
	policy := DefaultPolicy(cloud.SLA{Center: geo.Brisbane, RadiusKm: 100})
	policy.TMax = tmax
	tpa, err := NewTPA(enc, signer.Public(), policy)
	if err != nil {
		t.Fatal(err)
	}
	return &daemonFixture{ef: ef, site: site, signer: signer, verifier: verifier, tpa: tpa}
}

// audit ships one k-round audit through runner and has the TPA verify it.
func (f *daemonFixture) audit(ctx context.Context, runner AuditRunner, k int) (Report, error) {
	req, err := f.tpa.NewRequest(f.ef.FileID, f.ef.Layout, k)
	if err != nil {
		return Report{}, err
	}
	st, err := runner.RunAudit(ctx, req)
	if err != nil {
		return Report{}, err
	}
	return f.tpa.VerifyAudit(req, f.ef.Layout, st), nil
}

// TestThreePartyDistributedAudit runs prover, verifier daemon and TPA as
// three separate TCP endpoints on loopback — the full Fig. 4 deployment.
func TestThreePartyDistributedAudit(t *testing.T) {
	f := newDaemonFixture(t, 250*time.Millisecond)
	proverAddr, stopProver := startServer(t, &cloud.HonestProvider{Site: f.site}, false)
	defer stopProver()

	// Verifier daemon wired to the prover.
	pool := &ProverPool{DialTimeout: time.Second}
	defer pool.Close()
	vaddr, stopDaemon := startVerifierd(t, &PooledRunner{Verifier: f.verifier, Addr: proverAddr, Pool: pool})
	defer stopDaemon()

	// TPA connects to the verifier daemon only.
	remote := dialMux(t, vaddr)
	defer remote.Close()
	rep, err := f.audit(context.Background(), remote, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Accepted {
		t.Fatalf("distributed audit rejected: %s", rep.Reason())
	}
	if rep.SegmentsOK != 8 {
		t.Fatalf("segments ok %d", rep.SegmentsOK)
	}

	// A second audit over the same TPA connection.
	if rep2, err := f.audit(context.Background(), remote, 4); err != nil || !rep2.Accepted {
		t.Fatalf("second audit: %v, %s", err, rep2.Reason())
	}
}

// TestDaemonLegSharesOneConn: eight audits in flight at once cost one
// dial on each hop — TPA → daemon and daemon → prover — and every
// transcript is accepted. The prover holds each round until all eight
// audits have one outstanding, so audits served one after the other, on
// either hop, would never finish.
func TestDaemonLegSharesOneConn(t *testing.T) {
	const audits = 8
	f := newDaemonFixture(t, 5*time.Second)
	proverAddr, stopProver := startServer(t, &rendezvousProvider{Provider: &cloud.HonestProvider{Site: f.site}, want: audits}, false)
	defer stopProver()
	devicePool := &ProverPool{DialTimeout: time.Second}
	defer devicePool.Close()
	vaddr, stopDaemon := startVerifierd(t, &PooledRunner{Verifier: f.verifier, Addr: proverAddr, Pool: devicePool})
	defer stopDaemon()

	tpaPool := &ProverPool{DialTimeout: time.Second}
	defer tpaPool.Close()
	errc := make(chan error, audits)
	for i := 0; i < audits; i++ {
		go func() {
			daemon, release, err := tpaPool.Get(vaddr)
			if err != nil {
				errc <- err
				return
			}
			rep, err := f.audit(context.Background(), daemon, 6)
			release(err)
			if err == nil && !rep.Accepted {
				err = errors.New("rejected: " + rep.Reason())
			}
			errc <- err
		}()
	}
	for i := 0; i < audits; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	if d := tpaPool.Dials(); d != 1 {
		t.Fatalf("%d concurrent audits dialed the daemon %d times, want 1", audits, d)
	}
	if d := devicePool.Dials(); d != 1 {
		t.Fatalf("%d concurrent audits dialed the prover %d times, want 1", audits, d)
	}
}

// gatedRunner parks every audit until gate closes (or its context ends)
// and then runs it on inner, announcing each arrival on entered.
type gatedRunner struct {
	inner   AuditRunner
	gate    chan struct{}
	entered chan struct{}
}

func (r *gatedRunner) RunAudit(ctx context.Context, req AuditRequest) (SignedTranscript, error) {
	r.entered <- struct{}{}
	select {
	case <-r.gate:
		return r.inner.RunAudit(ctx, req)
	case <-ctx.Done():
		return SignedTranscript{}, ctx.Err()
	}
}

// TestDaemonAuditCancelLeavesSiblings: cancelling one in-flight audit
// abandons its stream and nothing else — the sibling in flight beside it
// completes and is accepted, the connection stays healthy and serves the
// next audit — and an audit sent to a daemon that never answers returns
// at its context's deadline. That is what lets the connection outlive a
// cancelled audit instead of being marked unusable by it.
func TestDaemonAuditCancelLeavesSiblings(t *testing.T) {
	f := newDaemonFixture(t, 5*time.Second)
	proverAddr, stopProver := startServer(t, &cloud.HonestProvider{Site: f.site}, false)
	defer stopProver()
	pool := &ProverPool{DialTimeout: time.Second}
	defer pool.Close()
	runner := &gatedRunner{
		inner:   &PooledRunner{Verifier: f.verifier, Addr: proverAddr, Pool: pool},
		gate:    make(chan struct{}),
		entered: make(chan struct{}, 2), // both audits announce themselves before the test looks
	}
	vaddr, stopDaemon := startVerifierd(t, runner)
	defer stopDaemon()
	remote := dialMux(t, vaddr)
	defer remote.Close()

	sibling := make(chan error, 1)
	go func() {
		rep, err := f.audit(context.Background(), remote, 4)
		if err == nil && !rep.Accepted {
			err = errors.New("rejected: " + rep.Reason())
		}
		sibling <- err
	}()
	ctx, cancel := context.WithCancel(context.Background())
	cancelled := make(chan error, 1)
	go func() {
		_, err := f.audit(ctx, remote, 4)
		cancelled <- err
	}()
	<-runner.entered
	<-runner.entered // both audits are parked in the daemon
	cancel()
	if err := <-cancelled; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled audit returned %v", err)
	}
	close(runner.gate)
	if err := <-sibling; err != nil {
		t.Fatalf("sibling of a cancelled audit: %v", err)
	}
	if !remote.Healthy() {
		t.Fatal("a cancelled audit left the connection unhealthy")
	}
	if rep, err := f.audit(context.Background(), remote, 4); err != nil || !rep.Accepted {
		t.Fatalf("audit after a cancelled one: %v, %s", err, rep.Reason())
	}

	// A daemon that acks the Hello and then says nothing.
	ack := wire.HelloAck{Version: wire.MuxVersion}
	silent := dialMux(t, refusingPeer(t, wire.TypeHelloAck, ack.Encode()))
	defer silent.Close()
	deadline, stop := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer stop()
	start := time.Now()
	if _, err := f.audit(deadline, silent, 4); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("audit against a silent daemon returned %v", err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("audit against a silent daemon took %v", el)
	}
	if !silent.Healthy() {
		t.Fatal("an abandoned audit left the connection unhealthy")
	}
}

// blockedProvider parks every fetch until release closes, announcing each
// arrival on entered.
type blockedProvider struct {
	cloud.Provider
	entered chan struct{}
	release chan struct{}
	fetches atomic.Int32
}

func (p *blockedProvider) FetchSegment(fileID string, i int64) ([]byte, time.Duration, error) {
	p.fetches.Add(1)
	p.entered <- struct{}{}
	<-p.release
	return p.Provider.FetchSegment(fileID, i)
}

// TestVerifierServerCancelsAuditsWhenTPALeaves: an audit whose TPA drops
// the connection is cancelled where it stands. The prover never answers
// the first round, yet once the TPA has gone the daemon shuts down — which
// waits for every audit to return — and no further round was ever sent;
// every goroutine of the three parties is gone afterwards.
func TestVerifierServerCancelsAuditsWhenTPALeaves(t *testing.T) {
	baseline := runtime.NumGoroutine()
	f := newDaemonFixture(t, 5*time.Second)
	provider := &blockedProvider{
		Provider: &cloud.HonestProvider{Site: f.site},
		entered:  make(chan struct{}, 1),
		release:  make(chan struct{}),
	}
	proverAddr, stopProver := startServer(t, provider, false)
	pool := &ProverPool{DialTimeout: time.Second}
	vaddr, stopDaemon := startVerifierd(t, &PooledRunner{Verifier: f.verifier, Addr: proverAddr, Pool: pool})
	remote := dialMux(t, vaddr)

	abandoned := make(chan error, 1)
	go func() {
		_, err := f.audit(context.Background(), remote, 8)
		abandoned <- err
	}()
	<-provider.entered // round 1 is at the prover, unanswered
	remote.Close()
	if err := <-abandoned; !errors.Is(err, ErrConnClosed) {
		t.Fatalf("audit on a closed connection returned %v", err)
	}
	stopped := make(chan struct{})
	go func() {
		stopDaemon()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("daemon still running an audit for a TPA that has gone")
	}
	close(provider.release)
	pool.Close()
	stopProver()
	if n := provider.fetches.Load(); n != 1 {
		t.Fatalf("prover was asked for %d segments, want the 1 in flight when the TPA left", n)
	}
	settleGoroutines(t, baseline)
}

// TestVerifierServerRejectsBadRequest: after the handshake every frame the
// daemon cannot serve is answered with exactly one TypeError on its own
// stream, and the connection stays up for the next.
func TestVerifierServerRejectsBadRequest(t *testing.T) {
	addr, stop := startVerifierd(t, &flakyRunner{failures: math.MaxInt32}) // every audit fails
	defer stop()
	conn := rawMuxConn(t, addr)
	defer conn.Close()

	valid := EncodeAuditRequest(AuditRequest{FileID: "f", NumSegments: 10, K: 2, Nonce: []byte{1}})
	frames := []struct {
		name    string
		typ     byte
		payload []byte
	}{
		{"malformed audit request", wire.TypeAuditRequest, []byte{1, 2}},
		{"audit the runner cannot run", wire.TypeAuditRequest, valid},
		{"unknown frame type", 42, nil},
		{"segment request", wire.TypeSegmentRequest, wire.SegmentRequest{FileID: "f", Index: 1}.Encode()},
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	next := func() (byte, uint32) {
		t.Helper()
		typ, stream, payload, err := wire.ReadMuxFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		wire.PutBuffer(payload)
		return typ, stream
	}
	for i, fr := range frames {
		want := uint32(i + 1)
		if err := wire.WriteMuxFrame(conn, fr.typ, want, fr.payload); err != nil {
			t.Fatal(err)
		}
		if typ, stream := next(); typ != wire.TypeError || stream != want {
			t.Fatalf("%s: got type %d on stream %d, want a TypeError on stream %d", fr.name, typ, stream, want)
		}
	}
	// Exactly one each: a second reply to any of them would arrive ahead
	// of this last refusal. Type 4 is unassigned.
	if err := wire.WriteMuxFrame(conn, 4, 99, nil); err != nil {
		t.Fatal(err)
	}
	if typ, stream := next(); typ != wire.TypeError || stream != 99 {
		t.Fatalf("after the refusals: type %d on stream %d, want the last refusal", typ, stream)
	}
}
