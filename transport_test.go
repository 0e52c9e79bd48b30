package repro

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/blockfile"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/crypt"
	"repro/internal/disk"
	"repro/internal/geo"
	"repro/internal/gps"
	"repro/internal/por"
	"repro/internal/simnet"
	"repro/internal/telemetry"
	"repro/internal/vclock"
)

// transportFixture stands up a prover serving one encoded file and a
// verifier, shared by the transport tests: on TCP loopback with a
// wall-clock verifier, or on a simulated network's node "prover" with
// every round timed on the network's virtual clock. It keeps the tenant
// encoder, file layout and verifier signing key so tests can also run the
// TPA side of the path. Throughput on this path is measured by
// the audit-loopback workload in bench/, not here.
type transportFixture struct {
	addr     string
	fileID   string
	indices  []uint64
	req      core.AuditRequest
	signer   *crypt.Signer
	enc      *por.Encoder
	layout   blockfile.Layout
	verifier *core.Verifier
	stop     func()
}

// benchData is n seeded bytes, the fixture's file.
func benchData(n int) []byte {
	d := make([]byte, n)
	rand.New(rand.NewSource(1)).Read(d)
	return d
}

func newTransportFixture(tb testing.TB, k int) *transportFixture {
	return newTransportFixtureOn(tb, k, disk.WD2500JD, nil, false)
}

// newTransportFixtureOn picks the prover's disk model, its network — TCP
// when sim is nil, sim's node "prover" otherwise — and whether it sleeps
// the model's look-up on every round.
func newTransportFixtureOn(tb testing.TB, k int, model disk.Model, sim *simnet.Network, simulate bool) *transportFixture {
	tb.Helper()
	enc := por.NewEncoder([]byte("transport-master"))
	ef, err := enc.Encode("transport-file", benchData(256<<10))
	if err != nil {
		tb.Fatal(err)
	}
	site := cloud.NewSite(cloud.DataCenter{Name: "bne", Position: geo.Brisbane, Disk: model}, 1)
	site.Store(ef.FileID, ef.Layout, ef.Data)
	var lis net.Listener
	var clock vclock.Clock
	if sim == nil {
		lis, err = net.Listen("tcp", "127.0.0.1:0")
	} else {
		lis, err = sim.Listen("prover")
		clock = sim.Clock()
	}
	if err != nil {
		tb.Fatal(err)
	}
	srv := &core.ProverServer{Provider: &cloud.HonestProvider{Site: site}, SimulateServiceTime: simulate}
	go srv.Serve(lis)

	signer, err := crypt.NewSigner()
	if err != nil {
		tb.Fatal(err)
	}
	verifier, err := core.NewVerifier(signer, &gps.Receiver{True: geo.Brisbane}, clock)
	if err != nil {
		tb.Fatal(err)
	}
	nonce := []byte("transport-nonce!")
	indices, err := core.DeriveIndices(nonce, ef.Layout.Segments, k)
	if err != nil {
		tb.Fatal(err)
	}
	return &transportFixture{
		addr:     lis.Addr().String(),
		fileID:   ef.FileID,
		indices:  indices,
		req:      core.AuditRequest{FileID: ef.FileID, NumSegments: ef.Layout.Segments, K: k, Nonce: nonce},
		signer:   signer,
		enc:      enc,
		layout:   ef.Layout,
		verifier: verifier,
		stop:     func() { srv.Close() },
	}
}

// newTPA builds the tenant's auditor over the fixture's encoder and
// verifier key, at the paper's Δt_max unless tmax overrides it. Segment
// checks run at Concurrency 1 so callers that already fan out (width-16
// bench workers, scheduler workers) don't square the worker count.
func (f *transportFixture) newTPA(tb testing.TB, tmax time.Duration) *core.TPA {
	tb.Helper()
	policy := core.DefaultPolicy(cloud.SLA{Center: geo.Brisbane, RadiusKm: 100})
	if tmax > 0 {
		policy.TMax = tmax
	}
	tpa, err := core.NewTPA(f.enc.WithConcurrency(1), f.signer.Public(), policy)
	if err != nil {
		tb.Fatal(err)
	}
	return tpa
}

// pooledAudit is one complete audit on the production path: borrow the
// pool's connection to addr, run the k serial timed rounds, sign, and
// have the TPA verify the transcript.
func pooledAudit(f *transportFixture, tpa *core.TPA, pool *core.ProverPool, addr string) (core.Report, error) {
	conn, release, err := pool.Get(addr)
	if err != nil {
		return core.Report{}, err
	}
	st, err := f.verifier.RunAudit(context.Background(), f.req, conn)
	release(err)
	if err != nil {
		return core.Report{}, err
	}
	return tpa.VerifyAudit(f.req, f.layout, st), nil
}

// acceptedAudit is pooledAudit for honest provers: any verdict other
// than accept is an error.
func acceptedAudit(f *transportFixture, tpa *core.TPA, pool *core.ProverPool, addr string) error {
	rep, err := pooledAudit(f, tpa, pool, addr)
	if err == nil && !rep.Accepted {
		err = fmt.Errorf("honest audit rejected: %s", rep.Reason())
	}
	return err
}

// coldAudit is acceptedAudit on a connection of its own: a fresh pool, so
// the TCP dial and the mux Hello precede the rounds.
func coldAudit(f *transportFixture, tpa *core.TPA, addr string) error {
	pool := &core.ProverPool{DialTimeout: 5 * time.Second}
	defer pool.Close()
	return acceptedAudit(f, tpa, pool, addr)
}

// muxFrames reads the verifier-side mux frame counters.
func muxFrames() (n float64) {
	for _, s := range telemetry.Default.Snapshot() {
		if s.Name == "geoproof_mux_frames_written_total" || s.Name == "geoproof_mux_frames_read_total" {
			n += s.Value
		}
	}
	return n
}

// TestProductionPathVerdicts pins the paper's claim on the path that
// ships — pool → mux → ProverServer sleeping its disk look-up → TPA — for
// every Table I disk at k = 20 and Δt_max = 50 ms (the daemons' default):
// an honest prover is accepted with every round inside one look-up plus
// slack (so a round's time is that round's, not a running sum), an audit
// costs exactly 2k mux frames on one dial, and the same prover 60 ms
// further away is rejected on timing alone. It runs on a simulated
// network, so the look-up is a virtual sleep and every round is timed on
// the network's clock: the verdicts do not depend on how busy the host is.
func TestProductionPathVerdicts(t *testing.T) {
	const (
		k        = 20
		tmax     = 50 * time.Millisecond
		slack    = 25 * time.Millisecond
		relayRTT = 60 * time.Millisecond
	)
	for _, model := range disk.TableI() {
		// The verifier device sits one LAN hop from the prover; the relay
		// front sits relayRTT of round trip away from the same data.
		sim := simnet.New(vclock.NewVirtual(time.Time{}), 1)
		sim.SetLink("verifier", "prover", simnet.LANLink{DistanceKm: 0.5, Switches: 3, PerSwitch: 30 * time.Microsecond, Base: 100 * time.Microsecond})
		sim.SetLink("relay", "prover", simnet.Fixed(relayRTT/2))
		fx := newTransportFixtureOn(t, k, model, sim, true)
		t.Cleanup(fx.stop)
		tpa := fx.newTPA(t, tmax)

		t.Run(model.Name+"/honest", func(t *testing.T) {
			pool := &core.ProverPool{Dial: sim.Dialer("verifier")}
			defer pool.Close()
			before := muxFrames()
			rep, err := pooledAudit(fx, tpa, pool, fx.addr)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Accepted {
				t.Fatalf("honest prover rejected: %s", rep.Reason())
			}
			lookup := model.LookupLatency(fx.layout.SegmentSize())
			if rep.MaxRTT < lookup || rep.MaxRTT > lookup+slack {
				t.Fatalf("max RTT %v, want within [%v, %v]: one look-up per round", rep.MaxRTT, lookup, lookup+slack)
			}
			if frames := muxFrames() - before; frames != 2*k {
				t.Fatalf("audit cost %v mux frames, want %d", frames, 2*k)
			}
			if d := pool.Dials(); d != 1 {
				t.Fatalf("audit dialed %d times, want 1", d)
			}
		})
		t.Run(model.Name+"/relayed", func(t *testing.T) {
			pool := &core.ProverPool{Dial: sim.Dialer("relay")}
			defer pool.Close()
			rep, err := pooledAudit(fx, tpa, pool, fx.addr)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Accepted || rep.TimingOK {
				t.Fatalf("prover %v away passed timing: max RTT %v", relayRTT, rep.MaxRTT)
			}
			if !rep.SignatureOK || !rep.PositionOK || !rep.IndicesOK || !rep.MACsOK {
				t.Fatalf("relayed prover failed more than timing: %s", rep.Reason())
			}
		})
	}
}

// auditRate runs serial audits through fn for the budget (min 5) and
// returns audits/s.
func auditRate(tb testing.TB, budget time.Duration, fn func() error) float64 {
	tb.Helper()
	start := time.Now()
	n := 0
	for time.Since(start) < budget || n < 5 {
		if err := fn(); err != nil {
			tb.Fatal(err)
		}
		n++
	}
	return float64(n) / time.Since(start).Seconds()
}

// TestTransportSmoke is the CI check of what a connection costs and what
// it cannot buy. The functional half always runs: one TPA-verified audit
// on a cold connection and one on the warm pooled one. The rate
// assertions are timing-sensitive, so they only arm when
// GEOPROOF_TRANSPORT_SMOKE=1 (set by the CI smoke step).
func TestTransportSmoke(t *testing.T) {
	const k = 24
	fx := newTransportFixture(t, k)
	defer fx.stop()
	tpa := fx.newTPA(t, 0)
	pool := &core.ProverPool{DialTimeout: 5 * time.Second}
	defer pool.Close()

	if err := coldAudit(fx, tpa, fx.addr); err != nil {
		t.Fatalf("cold connection: %v", err)
	}
	if err := acceptedAudit(fx, tpa, pool, fx.addr); err != nil {
		t.Fatalf("warm pooled connection: %v", err)
	}

	if os.Getenv("GEOPROOF_TRANSPORT_SMOKE") == "" {
		t.Skip("set GEOPROOF_TRANSPORT_SMOKE=1 for the rate assertions")
	}

	// Loopback: the warm connection saves the dial and the Hello, however
	// many audits ride it.
	cold := auditRate(t, 250*time.Millisecond, func() error { return coldAudit(fx, tpa, fx.addr) })
	warm := auditRate(t, 250*time.Millisecond, func() error { return acceptedAudit(fx, tpa, pool, fx.addr) })
	t.Logf("loopback: cold %.0f audits/s, warm pooled %.0f audits/s (x%.2f)", cold, warm, warm/cold)
	if d := pool.Dials(); d != 1 {
		t.Errorf("warm pool dialed %d times, want 1", d)
	}

	// Emulated 2 ms WAN RTT: the k round trips are the distance bound, so
	// no transport may finish an audit in less than k of them.
	const wanRTT = 2 * time.Millisecond
	wanAddr, stopProxy, err := delayProxy(fx.addr, wanRTT)
	if err != nil {
		t.Fatal(err)
	}
	defer stopProxy()
	wanPool := &core.ProverPool{DialTimeout: 5 * time.Second}
	defer wanPool.Close()
	wan := auditRate(t, 300*time.Millisecond, func() error { return acceptedAudit(fx, tpa, wanPool, wanAddr) })
	t.Logf("%v WAN: warm pooled %.1f audits/s, %v per audit", wanRTT, wan, time.Duration(float64(time.Second)/wan).Round(time.Microsecond))
	if floor := 1 / (k * wanRTT.Seconds()); wan > floor {
		t.Errorf("WAN audits ran at %.1f/s, faster than k serial round trips allow (%.1f/s)", wan, floor)
	}
}

// The batch-signing tests' shape: k is small so the per-audit ECDSA
// sign/verify pair dominates, and width audits are in flight at once on
// one pooled connection.
const (
	signingK     = 8
	signingWidth = 16
	signingTasks = 64
)

// signingScheds assembles two schedulers whose single prover is audited
// over pooled mux connections that dial dials (nil: TCP): solo has the
// verifier sign each transcript, batch has it batch digests under one
// Merkle root. Both are stopped when the test ends.
func signingScheds(t *testing.T, fx *transportFixture, dial func(string) (net.Conn, error)) (solo, batch *core.Scheduler) {
	newSched := func(batched bool) *core.Scheduler {
		pool := &core.ProverPool{DialTimeout: 5 * time.Second, Dial: dial}
		v := fx.verifier
		var bs *crypt.BatchSigner
		if batched {
			bs = crypt.NewBatchSigner(fx.signer, crypt.BatchSignerOptions{
				MaxBatch: signingWidth, MaxLatency: 2 * time.Millisecond,
			})
			v = v.WithBatchSigner(bs)
		}
		sched := core.NewScheduler(core.SchedulerConfig{Workers: signingWidth, ProverWindow: signingWidth})
		sched.RegisterTenant("tenant", fx.newTPA(t, 0))
		sched.RegisterProver("prover", &core.PooledRunner{Verifier: v, Addr: fx.addr, Pool: pool})
		t.Cleanup(func() {
			if bs != nil {
				bs.Close()
			}
			pool.Close()
		})
		return sched
	}
	return newSched(false), newSched(true)
}

// signingEpoch runs one epoch of signingTasks audits and requires every
// verdict accepted under wantMode.
func signingEpoch(t *testing.T, fx *transportFixture, sched *core.Scheduler, wantMode core.AttestationMode) {
	t.Helper()
	list := make([]core.AuditTask, signingTasks)
	for i := range list {
		list[i] = core.AuditTask{
			Tenant: "tenant", Prover: "prover",
			FileID: fx.fileID, Layout: fx.layout, K: signingK,
		}
	}
	for i, v := range sched.RunEpoch(context.Background(), list) {
		if v.Outcome != core.OutcomeAccepted {
			t.Fatalf("task %d: outcome %v (%s)", i, v.Outcome, v.Report.Reason())
		}
		if v.Report.Attestation != wantMode {
			t.Fatalf("task %d: attestation %v, want %v", i, v.Report.Attestation, wantMode)
		}
	}
}

// checkSigningLedger is the attestation-accounting self-check: every
// verified verdict (accepted or rejected) must have landed in exactly one
// attestation counter, and all of them in the expected one.
func checkSigningLedger(t *testing.T, sched *core.Scheduler, wantMode core.AttestationMode) {
	t.Helper()
	var accepted, rejected, batchAtt, soloAtt int
	for _, row := range sched.Ledger().Snapshot() {
		accepted += row.Accepted
		rejected += row.Rejected
		batchAtt += row.BatchAttested
		soloAtt += row.SoloAttested
	}
	if verified := accepted + rejected; verified == 0 || verified != batchAtt+soloAtt {
		t.Fatalf("ledger self-check: %d verified verdicts but %d+%d attested",
			accepted+rejected, batchAtt, soloAtt)
	}
	if wantMode == core.AttestBatch && soloAtt != 0 {
		t.Fatalf("batch-signing epoch recorded %d solo-attested verdicts", soloAtt)
	}
	if wantMode == core.AttestPerTranscript && batchAtt != 0 {
		t.Fatalf("per-transcript epoch recorded %d batch-attested verdicts", batchAtt)
	}
}

// TestBatchSigningSmoke checks per-transcript and Merkle-batched
// transcript signing, driven through the scheduler the way a production
// TPA runs epochs: one epoch per signing mode, signingWidth audits in
// flight on one pooled connection, every verdict accepted in the expected
// attestation mode, and the ledger self-check after each. It runs on a
// simulated network with a zero-delay hop and no modelled look-up, so
// every round trip takes no virtual time and an honest audit can be
// rejected on timing only through a bug, never through host load.
func TestBatchSigningSmoke(t *testing.T) {
	sim := simnet.New(vclock.NewVirtual(time.Time{}), 1)
	sim.SetLink("verifier", "prover", simnet.Fixed(0))
	fx := newTransportFixtureOn(t, signingK, disk.WD2500JD, sim, false)
	t.Cleanup(fx.stop)
	solo, batch := signingScheds(t, fx, sim.Dialer("verifier"))
	signingEpoch(t, fx, solo, core.AttestPerTranscript)
	signingEpoch(t, fx, batch, core.AttestBatch)
	checkSigningLedger(t, solo, core.AttestPerTranscript)
	checkSigningLedger(t, batch, core.AttestBatch)
}

// TestBatchSigningRate is the CI comparison of the two signing modes'
// throughput on TCP loopback: amortized signing must show up as ≥2×
// scheduled audits/s. It is a wall-clock measurement, so it only runs
// under GEOPROOF_TRANSPORT_SMOKE=1 (the CI smoke step).
func TestBatchSigningRate(t *testing.T) {
	if os.Getenv("GEOPROOF_TRANSPORT_SMOKE") == "" {
		t.Skip("set GEOPROOF_TRANSPORT_SMOKE=1 for the throughput-ratio assertion")
	}
	fx := newTransportFixture(t, signingK)
	defer fx.stop()
	solo, batch := signingScheds(t, fx, nil)
	rate := func(sched *core.Scheduler, mode core.AttestationMode) float64 {
		start := time.Now()
		n := 0
		for time.Since(start) < 400*time.Millisecond || n < 2*signingTasks {
			signingEpoch(t, fx, sched, mode)
			n += signingTasks
		}
		return float64(n) / time.Since(start).Seconds()
	}
	soloRate := rate(solo, core.AttestPerTranscript)
	batchRate := rate(batch, core.AttestBatch)
	t.Logf("scheduled k=%d: per-transcript %.0f audits/s, batch-signed %.0f audits/s (x%.1f)",
		signingK, soloRate, batchRate, batchRate/soloRate)
	if batchRate < 2*soloRate {
		t.Errorf("batch signing %.0f audits/s not ≥2x per-transcript %.0f audits/s", batchRate, soloRate)
	}
	checkSigningLedger(t, solo, core.AttestPerTranscript)
	checkSigningLedger(t, batch, core.AttestBatch)
}

// delayProxy forwards TCP connections to target, delaying every byte by
// rtt/2 in each direction — a userspace WAN emulator for loopback
// transport experiments. It models propagation, not serialisation: bytes
// written together are delivered together one half-RTT later, so every
// serial challenge/response round pays the RTT once, exactly as on a
// real link. It returns the proxy's address and a shutdown func.
func delayProxy(target string, rtt time.Duration) (string, func(), error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", target)
			if err != nil {
				conn.Close()
				continue
			}
			wg.Add(2)
			go delayPump(&wg, up, conn, rtt/2)
			go delayPump(&wg, conn, up, rtt/2)
		}
	}()
	return lis.Addr().String(), func() {
		lis.Close()
		wg.Wait()
	}, nil
}

// delayPump copies src→dst, delivering each chunk oneWay after it was
// read. Closing either side tears both down.
func delayPump(wg *sync.WaitGroup, dst, src net.Conn, oneWay time.Duration) {
	defer wg.Done()
	type pkt struct {
		b   []byte
		due time.Time
	}
	ch := make(chan pkt, 4096)
	go func() {
		defer close(ch)
		for {
			buf := make([]byte, 32<<10)
			n, err := src.Read(buf)
			if n > 0 {
				ch <- pkt{b: buf[:n], due: time.Now().Add(oneWay)}
			}
			if err != nil {
				return
			}
		}
	}()
	for p := range ch {
		time.Sleep(time.Until(p.due))
		if _, err := dst.Write(p.b); err != nil {
			break
		}
	}
	dst.Close()
	src.Close()
	for range ch { // drain so the reader goroutine exits
	}
}
