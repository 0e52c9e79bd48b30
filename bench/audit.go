package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blockfile"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/crypt"
	"repro/internal/disk"
	"repro/internal/geo"
	"repro/internal/gps"
	"repro/internal/por"
	"repro/internal/store"
	"repro/internal/telemetry"
)

const (
	auditK       = 20
	auditTimeout = 5 * time.Second

	fleetProvers      = 2
	fleetTenants      = 4
	fleetWorkers      = 16
	fleetProverWindow = 8
	fleetBatchMax     = 16
	fleetBatchLatency = 2 * time.Millisecond
)

// serialConn hides GetSegmentBatch, so Verifier.RunAudit times rounds the
// paper's way — one challenge, one response, one RTT — over the shared
// mux connection. See README "One timing semantic".
type serialConn struct{ core.ProverConn }

// tracedConn is serialConn with a span around every round.
type tracedConn struct {
	core.ProverConn
	rec    *recorder
	parent int32
	op     int32
}

func (c tracedConn) GetSegment(ctx context.Context, fileID string, index uint64) ([]byte, error) {
	s := c.rec.begin(spGetSegment, c.parent, c.op)
	seg, err := c.ProverConn.GetSegment(ctx, fileID, index)
	c.rec.end(s)
	return seg, err
}

// lockedRand makes one seeded source safe for the concurrent NewRequest
// calls of scheduler workers.
type lockedRand struct {
	mu  sync.Mutex
	rng *rand.Rand
}

func newLockedRand(seed int64) *lockedRand { return &lockedRand{rng: rand.New(rand.NewSource(seed))} }

func (r *lockedRand) Read(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rng.Read(p)
}

// proverEnd is one prover: a ProverServer on loopback serving one file.
type proverEnd struct {
	addr   string
	fileID string
	layout blockfile.Layout
	srv    *core.ProverServer
	served chan struct{} // closed when Serve returns
	store  *store.Store  // nil for the in-memory site
}

// auditFixture is everything an audit workload runs against.
type auditFixture struct {
	tpas     []*core.TPA // one per client or tenant, each with its own seeded nonce source
	verifier *core.Verifier
	batch    *crypt.BatchSigner // nil: per-transcript ECDSA
	pool     *core.ProverPool
	provers  []*proverEnd
	// epochTasks sizes a scheduler epoch: 128 is about one second of work
	// at 16 audits in flight and ~125 ms per audit — long enough that the
	// ramp-down at each epoch barrier stays a small share, short enough
	// to stop near the deadline.
	epochTasks int
}

var benchSLA = cloud.SLA{Center: geo.Brisbane, RadiusKm: 100}

func seededData(seed int64, n int64) io.Reader {
	return io.LimitReader(rand.New(rand.NewSource(seed)), n)
}

func serve(provider cloud.Provider, simulate bool) (*proverEnd, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &proverEnd{
		addr:   lis.Addr().String(),
		srv:    &core.ProverServer{Provider: provider, SimulateServiceTime: simulate},
		served: make(chan struct{}),
	}
	go func() {
		defer close(p.served)
		_ = p.srv.Serve(lis) // returns net.ErrClosed after Close
	}()
	return p, nil
}

// newAuditFixture builds the loopback fixture (storeBytes == 0: one
// prover, a 256 KiB file in an in-memory site, no modelled service time,
// per-transcript ECDSA) or the fleet fixture (fleetProvers provers, each
// serving a store.Open'ed store of storeBytes through a site that sleeps
// the IBM 36Z15's look-up time, batch-signed transcripts).
func newAuditFixture(seed int64, dir string, memBytes, storeBytes int64, tpas int) (fx *auditFixture, err error) {
	fx = &auditFixture{pool: &core.ProverPool{}}
	defer func() {
		if err != nil {
			fx.close()
		}
	}()
	master := []byte("bench-master-" + strconv.FormatInt(seed, 10))
	enc := por.NewEncoder(master)
	dc := cloud.DataCenter{Name: "bne", Position: geo.Brisbane, Disk: disk.IBM36Z15}

	if storeBytes == 0 {
		data, err := io.ReadAll(seededData(seed, memBytes))
		if err != nil {
			return fx, err
		}
		ef, err := enc.Encode("bench-file-0", data)
		if err != nil {
			return fx, err
		}
		site := cloud.NewSite(dc, seed)
		site.Store(ef.FileID, ef.Layout, ef.Data)
		p, err := serve(&cloud.HonestProvider{Site: site}, false)
		if err != nil {
			return fx, err
		}
		p.fileID, p.layout = ef.FileID, ef.Layout
		fx.provers = append(fx.provers, p)
	} else {
		for i := 0; i < fleetProvers; i++ {
			fileID := "bench-file-" + strconv.Itoa(i)
			sdir := filepath.Join(dir, "prover-"+strconv.Itoa(i))
			if err := removeAll(sdir); err != nil {
				return fx, err
			}
			if _, err := encodeStore(enc, fileID, seededData(seed+int64(i), storeBytes), storeBytes, sdir); err != nil {
				return fx, err
			}
			st, err := store.Open(sdir)
			if err != nil {
				return fx, err
			}
			site := cloud.NewSite(dc, seed+int64(i))
			site.StoreOn(fileID, st.Layout(), st)
			p, err := serve(&cloud.HonestProvider{Site: site}, true)
			if err != nil {
				st.Close()
				return fx, err
			}
			p.fileID, p.layout, p.store = fileID, st.Layout(), st
			fx.provers = append(fx.provers, p)
		}
	}

	signer, err := crypt.NewSigner()
	if err != nil {
		return fx, err
	}
	fx.verifier, err = core.NewVerifier(signer, &gps.Receiver{True: geo.Brisbane}, nil)
	if err != nil {
		return fx, err
	}
	if storeBytes != 0 {
		fx.batch = crypt.NewBatchSigner(signer, crypt.BatchSignerOptions{MaxBatch: fleetBatchMax, MaxLatency: fleetBatchLatency})
		fx.verifier = fx.verifier.WithBatchSigner(fx.batch)
	}
	// Segment checks at Concurrency 1: the callers already run as many
	// audits at once as there are cores.
	tpa, err := core.NewTPA(enc.WithConcurrency(1), signer.Public(), core.DefaultPolicy(benchSLA))
	if err != nil {
		return fx, err
	}
	for i := 0; i < tpas; i++ {
		fx.tpas = append(fx.tpas, tpa.WithNonceReader(newLockedRand(seed*1000+int64(i))))
	}
	for _, p := range fx.provers {
		_, release, err := fx.pool.Get(p.addr)
		if err != nil {
			return fx, fmt.Errorf("dial %s: %w", p.addr, err)
		}
		release(nil)
	}
	return fx, nil
}

func (fx *auditFixture) close() {
	fx.pool.Close()
	if fx.batch != nil {
		fx.batch.Close()
	}
	for _, p := range fx.provers {
		p.srv.Close()
		<-p.served
		if p.store != nil {
			p.store.Close()
		}
	}
}

// runAudit is the timed phase of one audit against prover p: borrow the
// pooled mux connection, run the k serial rounds, attest.
func (fx *auditFixture) runAudit(ctx context.Context, p *proverEnd, req core.AuditRequest, wrap func(core.ProverConn) core.ProverConn, rec *recorder, parent, op int32) (core.SignedTranscript, error) {
	s := rec.begin(spPoolGet, parent, op)
	conn, release, err := fx.pool.Get(p.addr)
	rec.end(s)
	if err != nil {
		return core.SignedTranscript{}, err
	}
	s = rec.begin(spRunAudit, parent, op)
	var pc core.ProverConn = serialConn{conn}
	if rec != nil {
		pc = tracedConn{conn, rec, s, op}
	}
	if wrap != nil {
		pc = wrap(pc)
	}
	st, err := fx.verifier.RunAudit(ctx, req, pc)
	rec.end(s)
	release(err)
	return st, err
}

// tally accumulates audit outcomes. One mutex for everything: it is
// taken once per audit, a few thousand times a second at most.
type tally struct {
	ops atomic.Int32 // operation ids for spans

	mu            sync.Mutex
	attempted     int64
	good          int64 // accepted
	failed        int64
	timingRejects int64
	firstFailure  string
	lat, rtt      hist

	// The slice in progress, and the slices finished: see endSlice.
	sliceLat  hist
	sliceGood int64
	slices    []sliceStat
}

// sliceStat is one slice of an audit window: what it accepted, how long
// it ran, and its median latency in nanoseconds.
type sliceStat struct {
	good int64
	wall time.Duration
	p50  float64
}

// record classifies one finished audit. Only an audit whose every check
// but timing passed is a timing reject; anything else short of accepted
// is a failure.
func (t *tally) record(lat time.Duration, rep core.Report, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	t.lat.add(lat)
	t.sliceLat.add(lat)
	switch {
	case err != nil:
		t.fail(err.Error())
	case rep.Accepted:
		t.good++
		t.sliceGood++
	case rep.SignatureOK && rep.PositionOK && rep.IndicesOK && rep.MACsOK && rep.FailedRounds == 0 && !rep.TimingOK:
		t.timingRejects++
	default:
		t.fail(rep.Reason())
	}
}

// endSlice closes the slice that ran for wall. The caller has no audit
// in flight.
func (t *tally) endSlice(wall time.Duration) {
	t.slices = append(t.slices, sliceStat{t.sliceGood, wall, t.sliceLat.quantile(0.5)})
	t.sliceLat, t.sliceGood = hist{}, 0
}

// calibrated returns the window's goodput and median latency on the
// reference host: the medians, over slices, of accepted audits per
// calibrated second and of the slice's median latency, calibrated. The
// factors are the calibration's.
func (t *tally) calibrated(whole []float64, short float64) (goodput, p50ms float64) {
	rates, p50s := make([]float64, len(t.slices)), make([]float64, len(t.slices))
	for i, s := range t.slices {
		rates[i] = div(float64(s.good), s.wall.Seconds()*whole[i])
		p50s[i] = s.p50 * short / 1e6
	}
	return median(rates), median(p50s)
}

func (t *tally) fail(why string) {
	t.failed++
	if t.firstFailure == "" {
		t.firstFailure = why
	}
}

func (t *tally) rounds(st core.SignedTranscript) {
	t.mu.Lock()
	for _, r := range st.Transcript.Rounds {
		if !r.Failed {
			t.rtt.add(r.RTT)
		}
	}
	t.mu.Unlock()
}

// loopbackClients runs one closed-loop TPA caller per fx.tpas entry until
// the deadline: NewRequest → RunAudit → VerifyAudit, next.
func loopbackClients(fx *auditFixture, t *tally, rec *recorder, deadline time.Time) {
	var wg sync.WaitGroup
	for _, tpa := range fx.tpas {
		tpa := tpa
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := fx.provers[0]
			for time.Now().Before(deadline) {
				op := t.ops.Add(1)
				start := time.Now()
				root := rec.begin(spAudit, -1, op)
				rep, st, err := directAudit(fx, tpa, p, nil, rec, root, op)
				rec.end(root)
				t.record(time.Since(start), rep, err)
				t.rounds(st)
			}
		}()
	}
	wg.Wait()
}

// directAudit is one TPA.NewRequest → Verifier.RunAudit → TPA.VerifyAudit.
func directAudit(fx *auditFixture, tpa *core.TPA, p *proverEnd, wrap func(core.ProverConn) core.ProverConn, rec *recorder, parent, op int32) (core.Report, core.SignedTranscript, error) {
	s := rec.begin(spNewRequest, parent, op)
	req, err := tpa.NewRequest(p.fileID, p.layout, auditK)
	rec.end(s)
	if err != nil {
		return core.Report{}, core.SignedTranscript{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), auditTimeout)
	st, err := fx.runAudit(ctx, p, req, wrap, rec, parent, op)
	cancel()
	if err != nil {
		return core.Report{}, st, err
	}
	s = rec.begin(spVerifyAudit, parent, op)
	rep := tpa.VerifyAudit(req, p.layout, st)
	rec.end(s)
	return rep, st, nil
}

// opMarker prefixes the zero-length span the harness's runner drops into
// the scheduler's own AuditTrace, so the scheduler's spans (window wait,
// attempt, verify) can be joined to the runner's spans of the same audit.
const opMarker = "bench.op/"

// fleetRunner is the harness's core.AuditRunner for one prover.
type fleetRunner struct {
	fx  *auditFixture
	p   *proverEnd
	t   *tally
	rec *recorder

	mu    sync.Mutex
	roots map[int32]int32 // op → runner span, for joining scheduler spans
}

func (r *fleetRunner) RunAudit(ctx context.Context, req core.AuditRequest) (core.SignedTranscript, error) {
	op := r.t.ops.Add(1)
	root := r.rec.begin(spRunner, -1, op)
	st, err := r.fx.runAudit(ctx, r.p, req, nil, r.rec, root, op)
	r.rec.end(root)
	if r.rec != nil {
		telemetry.TraceFrom(ctx).Span(opMarker + strconv.Itoa(int(op)))()
		r.mu.Lock()
		r.roots[op] = root
		r.mu.Unlock()
	}
	r.t.rounds(st)
	return st, err
}

// fleetEpochs drives core.Scheduler.RunEpoch back to back until the
// deadline. Closed loop: each of the fleetWorkers workers waits for its
// verdict before taking the next task.
func fleetEpochs(fx *auditFixture, t *tally, rec *recorder, deadline time.Time) {
	var tracer *telemetry.AuditTracer
	if rec != nil {
		tracer = telemetry.NewAuditTracer(1<<15, nil)
	}
	sched := core.NewScheduler(core.SchedulerConfig{
		Workers:      fleetWorkers,
		ProverWindow: fleetProverWindow,
		Timeout:      auditTimeout,
		Tracer:       tracer,
		OnVerdict: func(v core.Verdict) {
			var err error
			if v.Outcome == core.OutcomeTimeout || v.Outcome == core.OutcomeError {
				err = errors.New(v.Outcome.String() + ": " + v.Err)
			}
			t.record(v.Elapsed, v.Report, err)
		},
	})
	var runners []*fleetRunner
	var tasks []core.AuditTask
	for i, tpa := range fx.tpas {
		sched.RegisterTenant("tenant-"+strconv.Itoa(i), tpa)
	}
	for i, p := range fx.provers {
		r := &fleetRunner{fx: fx, p: p, t: t, rec: rec, roots: make(map[int32]int32)}
		runners = append(runners, r)
		sched.RegisterProver("prover-"+strconv.Itoa(i), r)
	}
	for len(tasks) < fx.epochTasks {
		for i := range fx.tpas {
			for j, p := range fx.provers {
				tasks = append(tasks, core.AuditTask{
					Tenant: "tenant-" + strconv.Itoa(i), Prover: "prover-" + strconv.Itoa(j),
					FileID: p.fileID, Layout: p.layout, K: auditK,
				})
			}
		}
	}
	for time.Now().Before(deadline) {
		sched.RunEpoch(context.Background(), tasks)
	}
	if rec != nil {
		joinSchedulerSpans(rec, tracer, runners)
	}
}

// joinSchedulerSpans turns each scheduler AuditTrace into spans of the
// harness's recorder — sched_audit ⊃ {sched_attempt ⊃ {window_wait,
// runner}, verify_audit} — using the op marker the runner left in it.
func joinSchedulerSpans(rec *recorder, tracer *telemetry.AuditTracer, runners []*fleetRunner) {
	roots := make(map[int32]int32)
	for _, r := range runners {
		for op, id := range r.roots {
			roots[op] = id
		}
	}
	for _, at := range tracer.Snapshot() {
		op := int32(-1)
		for _, s := range at.Spans {
			if strings.HasPrefix(s.Name, opMarker) {
				if n, err := strconv.Atoi(s.Name[len(opMarker):]); err == nil {
					op = int32(n)
				}
			}
		}
		runner, ok := roots[op]
		if !ok {
			continue
		}
		base := at.Start.Sub(rec.t0)
		at := at
		find := func(name string) (telemetry.Span, bool) {
			for _, s := range at.Spans {
				if s.Name == name {
					return s, true
				}
			}
			return telemetry.Span{}, false
		}
		root := rec.add(spSchedAudit, -1, op, base, base+time.Duration(at.ElapsedNs))
		attempt, ok := find("attempt")
		if !ok {
			continue
		}
		a := rec.add(spSchedAttempt, root, op, base+time.Duration(attempt.StartNs), base+time.Duration(attempt.EndNs))
		if w, ok := find("window-wait"); ok {
			rec.add(spSchedWindowWait, a, op, base+time.Duration(w.StartNs), base+time.Duration(w.EndNs))
		}
		rec.setParent(runner, a)
		if v, ok := find("verify"); ok {
			rec.add(spVerifyAudit, root, op, base+time.Duration(v.StartNs), base+time.Duration(v.EndNs))
		}
	}
}

// Canaries: before an audit window opens, three audits that must be
// rejected — each for its own reason — and one that must be accepted. If
// any goes the wrong way the TPA's verdicts mean nothing and the run
// aborts, so the benchmark can never become a loop that ignores verdicts.

// tamperConn flips one byte of the segment returned in round `round`.
type tamperConn struct {
	core.ProverConn
	round, seen int
}

func (c *tamperConn) GetSegment(ctx context.Context, fileID string, index uint64) ([]byte, error) {
	seg, err := c.ProverConn.GetSegment(ctx, fileID, index)
	if err == nil && c.seen == c.round && len(seg) > 0 {
		seg = append([]byte(nil), seg...)
		seg[0] ^= 0x01
	}
	c.seen++
	return seg, err
}

// delayConn adds 20 ms to round `round`.
type delayConn struct {
	core.ProverConn
	round, seen int
}

func (c *delayConn) GetSegment(ctx context.Context, fileID string, index uint64) ([]byte, error) {
	if c.seen == c.round {
		time.Sleep(20 * time.Millisecond)
	}
	c.seen++
	return c.ProverConn.GetSegment(ctx, fileID, index)
}

func runCanaries(fx *auditFixture, seed int64) error {
	tpa, p := fx.tpas[0], fx.provers[0]
	round := int(seed%auditK+auditK) % auditK

	// The honest control is retried: on a shared host a single audit can
	// lose 20 ms to a stall, and a timing reject here says nothing about
	// the verdict logic.
	var honest core.SignedTranscript
	var rep core.Report
	var err error
	for try := 0; try < 5; try++ {
		rep, honest, err = directAudit(fx, tpa, p, nil, nil, -1, 0)
		if err != nil {
			return fmt.Errorf("canary honest audit: %w", err)
		}
		if rep.Accepted {
			break
		}
	}
	if !rep.Accepted {
		return fmt.Errorf("canary: honest audit rejected: %s", rep.Reason())
	}

	rep, _, err = directAudit(fx, tpa, p, func(c core.ProverConn) core.ProverConn {
		return &tamperConn{ProverConn: c, round: round}
	}, nil, -1, 0)
	if err != nil {
		return fmt.Errorf("canary flipped byte: %w", err)
	}
	if rep.Accepted || rep.MACsOK || rep.SegmentsBad != 1 {
		return fmt.Errorf("canary: flipped byte in round %d not rejected on MACs (accepted=%v MACsOK=%v bad=%d)", round, rep.Accepted, rep.MACsOK, rep.SegmentsBad)
	}

	rep, _, err = directAudit(fx, tpa, p, func(c core.ProverConn) core.ProverConn {
		return &delayConn{ProverConn: c, round: round}
	}, nil, -1, 0)
	if err != nil {
		return fmt.Errorf("canary delayed round: %w", err)
	}
	if rep.Accepted || rep.TimingOK || !rep.MACsOK {
		return fmt.Errorf("canary: 20 ms added to round %d not rejected on timing (accepted=%v TimingOK=%v MACsOK=%v maxRTT=%v)", round, rep.Accepted, rep.TimingOK, rep.MACsOK, rep.MaxRTT)
	}

	fresh, err := tpa.NewRequest(p.fileID, p.layout, auditK)
	if err != nil {
		return fmt.Errorf("canary replay: %w", err)
	}
	rep = tpa.VerifyAudit(fresh, p.layout, honest)
	if rep.Accepted || core.NonceEqual(honest.Transcript.Nonce, fresh.Nonce) {
		return errors.New("canary: transcript replayed under a fresh nonce was accepted")
	}
	return nil
}
