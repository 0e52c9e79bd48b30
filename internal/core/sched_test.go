package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/crypt"
	"repro/internal/geo"
	"repro/internal/gps"
	"repro/internal/por"
)

// memConn serves segments straight from an encoded file in memory — the
// fastest possible honest prover, used to exercise scheduler mechanics
// without a network model.
type memConn struct{ store *por.Store }

func (c *memConn) GetSegment(_ context.Context, fileID string, index uint64) ([]byte, error) {
	return c.store.ReadSegment(int64(index))
}

// localRunner drives audits through an in-process verifier over a fixed
// prover connection, such as a memConn.
type localRunner struct {
	Verifier *Verifier
	Conn     ProverConn
}

func (r *localRunner) RunAudit(ctx context.Context, req AuditRequest) (SignedTranscript, error) {
	return r.Verifier.RunAudit(ctx, req, r.Conn)
}

// corruptConn flips a payload byte in every returned segment.
type corruptConn struct{ store *por.Store }

func (c *corruptConn) GetSegment(_ context.Context, fileID string, index uint64) ([]byte, error) {
	seg, err := c.store.ReadSegment(int64(index))
	if err != nil {
		return nil, err
	}
	bad := append([]byte(nil), seg...)
	bad[0] ^= 0xFF
	return bad, nil
}

// countingRunner tracks the concurrent RunAudit calls passing through it.
type countingRunner struct {
	inner AuditRunner
	delay time.Duration
	cur   atomic.Int64
	max   atomic.Int64
}

func (r *countingRunner) RunAudit(ctx context.Context, req AuditRequest) (SignedTranscript, error) {
	n := r.cur.Add(1)
	defer r.cur.Add(-1)
	for {
		m := r.max.Load()
		if n <= m || r.max.CompareAndSwap(m, n) {
			break
		}
	}
	if r.delay > 0 {
		time.Sleep(r.delay)
	}
	return r.inner.RunAudit(ctx, req)
}

// hungRunner never answers until released or cancelled. It counts the
// goroutines currently parked inside it, so tests can assert that the
// scheduler's cancellation of abandoned attempts actually reclaims them
// (the pre-context scheduler leaked one goroutine per timed-out attempt
// here).
type hungRunner struct {
	release chan struct{}
	active  atomic.Int64
}

func (r *hungRunner) RunAudit(ctx context.Context, _ AuditRequest) (SignedTranscript, error) {
	r.active.Add(1)
	defer r.active.Add(-1)
	select {
	case <-r.release:
		return SignedTranscript{}, errors.New("released")
	case <-ctx.Done():
		return SignedTranscript{}, ctx.Err()
	}
}

// flakyRunner fails its first failures calls with a transport error, then
// delegates.
type flakyRunner struct {
	inner    AuditRunner
	failures int32
	calls    atomic.Int32
}

func (r *flakyRunner) RunAudit(ctx context.Context, req AuditRequest) (SignedTranscript, error) {
	if r.calls.Add(1) <= r.failures {
		return SignedTranscript{}, errors.New("connection reset by prover")
	}
	return r.inner.RunAudit(ctx, req)
}

// schedFixture is a scheduler-ready deployment: one encoded file, a local
// verifier on the wall clock and a TPA with a generous timing policy (the
// in-memory provers answer in nanoseconds; the loose Δt_max keeps the
// tests robust on loaded single-core CI runners).
type schedFixture struct {
	ef       *por.EncodedFile
	store    *por.Store
	verifier *Verifier
	tpa      *TPA
}

func newSchedFixture(t *testing.T) *schedFixture {
	t.Helper()
	enc, ef := encodeTestFile(t)
	signer, err := crypt.NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	verifier, err := NewVerifier(signer, &gps.Receiver{True: geo.Brisbane}, nil)
	if err != nil {
		t.Fatal(err)
	}
	policy := DefaultPolicy(cloud.SLA{Center: geo.Brisbane, RadiusKm: 100})
	policy.TMax = 5 * time.Second
	tpa, err := NewTPA(enc.WithConcurrency(1), signer.Public(), policy)
	if err != nil {
		t.Fatal(err)
	}
	return &schedFixture{ef: ef, store: por.NewStore(ef), verifier: verifier, tpa: tpa}
}

func (f *schedFixture) task(tenant, prover string, k int) AuditTask {
	return AuditTask{Tenant: tenant, Prover: prover, FileID: f.ef.FileID, Layout: f.ef.Layout, K: k}
}

// TestSchedulerInFlightBoundNeverExceeded is the acceptance-scale run:
// 100 tenants × 10 provers, and no prover ever sees more than ProverWindow
// concurrent audits (run under -race in CI).
func TestSchedulerInFlightBoundNeverExceeded(t *testing.T) {
	f := newSchedFixture(t)
	const (
		tenants = 100
		provers = 10
		window  = 3
	)
	sched := NewScheduler(SchedulerConfig{Workers: 32, ProverWindow: window})
	runners := make([]*countingRunner, provers)
	for p := 0; p < provers; p++ {
		runners[p] = &countingRunner{
			inner: &localRunner{Verifier: f.verifier, Conn: &memConn{store: f.store}},
			delay: 100 * time.Microsecond,
		}
		sched.RegisterProver(fmt.Sprintf("prover-%02d", p), runners[p])
	}
	var tasks []AuditTask
	for tn := 0; tn < tenants; tn++ {
		tenant := fmt.Sprintf("tenant-%03d", tn)
		sched.RegisterTenant(tenant, f.tpa)
		for p := 0; p < provers; p++ {
			tasks = append(tasks, f.task(tenant, fmt.Sprintf("prover-%02d", p), 2))
		}
	}

	verdicts := sched.RunEpoch(context.Background(), tasks)
	if len(verdicts) != tenants*provers {
		t.Fatalf("got %d verdicts, want %d", len(verdicts), tenants*provers)
	}
	for _, v := range verdicts {
		if v.Outcome != OutcomeAccepted {
			t.Fatalf("audit %s/%s: outcome %v (%s; report: %s)",
				v.Task.Tenant, v.Task.Prover, v.Outcome, v.Err, v.Report.Reason())
		}
		if v.Epoch != 1 {
			t.Fatalf("verdict epoch = %d, want 1", v.Epoch)
		}
	}
	for p, r := range runners {
		if m := r.max.Load(); m > window {
			t.Errorf("prover-%02d saw %d concurrent audits, window is %d", p, m, window)
		}
	}

	// The ledger has one cell per (tenant, prover, epoch), each accepted.
	rows := sched.Ledger().Snapshot()
	if len(rows) != tenants*provers {
		t.Fatalf("ledger has %d cells, want %d", len(rows), tenants*provers)
	}
	for _, row := range rows {
		if row.Audits != 1 || row.Accepted != 1 {
			t.Fatalf("ledger cell %v: %+v", row.LedgerKey, row.LedgerEntry)
		}
	}
	byTenant := sched.Ledger().TotalsByTenant()
	if len(byTenant) != tenants {
		t.Fatalf("TotalsByTenant has %d rows, want %d", len(byTenant), tenants)
	}
	for _, row := range byTenant {
		if row.Audits != provers || row.Accepted != provers {
			t.Fatalf("tenant %s totals: %+v", row.Name, row.LedgerEntry)
		}
	}
}

// TestSchedulerTimeoutReleasesWindow: a prover that never responds yields
// timeout verdicts, and its single window slot is freed at each deadline
// so queued audits behind it still reach a verdict.
func TestSchedulerTimeoutReleasesWindow(t *testing.T) {
	f := newSchedFixture(t)
	release := make(chan struct{})
	defer close(release) // let abandoned attempts exit
	sched := NewScheduler(SchedulerConfig{
		Workers:      2,
		ProverWindow: 1,
		Timeout:      30 * time.Millisecond,
		Retries:      1,
	})
	sched.RegisterTenant("t1", f.tpa)
	sched.RegisterProver("dead", &hungRunner{release: release})

	done := make(chan []Verdict, 1)
	go func() {
		done <- sched.RunEpoch(context.Background(), []AuditTask{f.task("t1", "dead", 2), f.task("t1", "dead", 2)})
	}()
	var verdicts []Verdict
	select {
	case verdicts = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("epoch did not finish: timed-out audits are not releasing the prover window")
	}
	for i, v := range verdicts {
		if v.Outcome != OutcomeTimeout {
			t.Fatalf("verdict %d: outcome %v, want timeout (err %q)", i, v.Outcome, v.Err)
		}
		if v.Attempts != 2 {
			t.Errorf("verdict %d: %d attempts, want 2 (1 retry)", i, v.Attempts)
		}
		if !strings.Contains(v.Err, "timed out") {
			t.Errorf("verdict %d: err %q does not mention the timeout", i, v.Err)
		}
	}
	entry, ok := sched.Ledger().Entry("t1", "dead", 1)
	if !ok || entry.Timeouts != 2 || entry.Audits != 2 {
		t.Fatalf("ledger entry = %+v, ok=%v; want 2 timeouts", entry, ok)
	}
}

// TestSchedulerCorruptProverRejectedNotRetried: corrupt transcripts are
// verdicts — recorded as rejections with the MAC detail, never retried,
// and the window slot is released so later audits proceed.
func TestSchedulerCorruptProverRejectedNotRetried(t *testing.T) {
	f := newSchedFixture(t)
	sched := NewScheduler(SchedulerConfig{
		Workers:      2,
		ProverWindow: 1,
		Retries:      3, // must NOT be spent on rejections
	})
	sched.RegisterTenant("t1", f.tpa)
	sched.RegisterProver("corrupt", &localRunner{
		Verifier: f.verifier,
		Conn:     &corruptConn{store: f.store},
	})

	verdicts := sched.RunEpoch(context.Background(), []AuditTask{
		f.task("t1", "corrupt", 3),
		f.task("t1", "corrupt", 3),
	})
	for i, v := range verdicts {
		if v.Outcome != OutcomeRejected {
			t.Fatalf("verdict %d: outcome %v, want rejected", i, v.Outcome)
		}
		if v.Attempts != 1 {
			t.Errorf("verdict %d: %d attempts; rejections must not be retried", i, v.Attempts)
		}
		if v.Report.MACsOK || v.Report.SegmentsBad != 3 {
			t.Errorf("verdict %d: report %+v, want 3 bad segments", i, v.Report)
		}
	}
	entry, _ := sched.Ledger().Entry("t1", "corrupt", 1)
	if entry.Rejected != 2 || entry.LastReason == "" {
		t.Fatalf("ledger entry = %+v; want 2 rejections with a reason", entry)
	}
}

// TestSchedulerRetryThenAccept: a transient transport failure is retried
// (with a fresh nonce) and the second attempt's transcript is accepted.
func TestSchedulerRetryThenAccept(t *testing.T) {
	f := newSchedFixture(t)
	sched := NewScheduler(SchedulerConfig{
		Workers:      1,
		ProverWindow: 1,
		Retries:      2,
		RetryBackoff: time.Millisecond,
	})
	sched.RegisterTenant("t1", f.tpa)
	sched.RegisterProver("flaky", &flakyRunner{
		inner:    &localRunner{Verifier: f.verifier, Conn: &memConn{store: f.store}},
		failures: 1,
	})

	verdicts := sched.RunEpoch(context.Background(), []AuditTask{f.task("t1", "flaky", 2)})
	if v := verdicts[0]; v.Outcome != OutcomeAccepted || v.Attempts != 2 {
		t.Fatalf("verdict = %+v, want accepted on attempt 2", v)
	}
}

// TestSchedulerUnregisteredNames: tasks naming unknown tenants or provers
// become error verdicts instead of panics or silent drops.
func TestSchedulerUnregisteredNames(t *testing.T) {
	f := newSchedFixture(t)
	sched := NewScheduler(SchedulerConfig{Workers: 1})
	sched.RegisterTenant("t1", f.tpa)

	verdicts := sched.RunEpoch(context.Background(), []AuditTask{
		f.task("ghost", "prover", 2),
		f.task("t1", "ghost", 2),
	})
	for i, v := range verdicts {
		if v.Outcome != OutcomeError || !strings.Contains(v.Err, "unregistered") {
			t.Fatalf("verdict %d = %+v, want unregistered error", i, v)
		}
	}
}

// TestSchedulerEpochsAccumulate: epochs number consecutively and the
// ledger keeps every epoch's cells apart.
func TestSchedulerEpochsAccumulate(t *testing.T) {
	f := newSchedFixture(t)
	sched := NewScheduler(SchedulerConfig{Workers: 2, ProverWindow: 2})
	sched.RegisterTenant("t1", f.tpa)
	sched.RegisterProver("p1", &localRunner{Verifier: f.verifier, Conn: &memConn{store: f.store}})

	for epoch := 1; epoch <= 3; epoch++ {
		verdicts := sched.RunEpoch(context.Background(), []AuditTask{f.task("t1", "p1", 2)})
		if got := verdicts[0].Epoch; got != uint64(epoch) {
			t.Fatalf("epoch = %d, want %d", got, epoch)
		}
	}
	if rows := sched.Ledger().Snapshot(); len(rows) != 3 {
		t.Fatalf("ledger has %d cells, want one per epoch (3)", len(rows))
	}
	byProver := sched.Ledger().TotalsByProver()
	if len(byProver) != 1 || byProver[0].Audits != 3 {
		t.Fatalf("TotalsByProver = %+v, want 3 audits on p1", byProver)
	}
}

// TestAuditLedgerCompactBefore: old epochs fold into the epoch-0 archive
// cell, totals are unchanged, and ledger size is bounded.
func TestAuditLedgerCompactBefore(t *testing.T) {
	f := newSchedFixture(t)
	sched := NewScheduler(SchedulerConfig{Workers: 1})
	sched.RegisterTenant("t1", f.tpa)
	sched.RegisterProver("p1", &localRunner{Verifier: f.verifier, Conn: &memConn{store: f.store}})
	for epoch := 0; epoch < 4; epoch++ {
		sched.RunEpoch(context.Background(), []AuditTask{f.task("t1", "p1", 2)})
	}

	sched.Ledger().CompactBefore(4)
	rows := sched.Ledger().Snapshot()
	if len(rows) != 2 {
		t.Fatalf("ledger has %d cells after compaction, want archive + epoch 4: %+v", len(rows), rows)
	}
	if rows[0].Epoch != 0 || rows[0].Audits != 3 {
		t.Fatalf("archive cell = %+v, want epoch 0 with 3 audits", rows[0])
	}
	if rows[1].Epoch != 4 || rows[1].Audits != 1 {
		t.Fatalf("live cell = %+v, want epoch 4 with 1 audit", rows[1])
	}
	totals := sched.Ledger().TotalsByProver()
	if len(totals) != 1 || totals[0].Audits != 4 || totals[0].Accepted != 4 {
		t.Fatalf("totals after compaction = %+v, want 4 accepted audits", totals)
	}

	// Compacting again with the same horizon is a no-op.
	sched.Ledger().CompactBefore(4)
	if again := sched.Ledger().Snapshot(); len(again) != 2 {
		t.Fatalf("recompaction changed the ledger: %+v", again)
	}
}

// TestSchedulerOnVerdictHook: the live-summary hook observes every
// verdict exactly once.
func TestSchedulerOnVerdictHook(t *testing.T) {
	f := newSchedFixture(t)
	var mu sync.Mutex
	seen := 0
	sched := NewScheduler(SchedulerConfig{
		Workers: 4,
		OnVerdict: func(Verdict) {
			mu.Lock()
			seen++
			mu.Unlock()
		},
	})
	sched.RegisterTenant("t1", f.tpa)
	sched.RegisterProver("p1", &localRunner{Verifier: f.verifier, Conn: &memConn{store: f.store}})
	tasks := make([]AuditTask, 8)
	for i := range tasks {
		tasks[i] = f.task("t1", "p1", 2)
	}
	sched.RunEpoch(context.Background(), tasks)
	if seen != len(tasks) {
		t.Fatalf("OnVerdict fired %d times, want %d", seen, len(tasks))
	}
}

// TestFairOrder: round-robin interleave across tenants, first-appearance
// tenant order, per-tenant order preserved, weights honoured.
func TestFairOrder(t *testing.T) {
	mk := func(tenant string, n int) []AuditTask {
		out := make([]AuditTask, n)
		for i := range out {
			out[i] = AuditTask{Tenant: tenant, FileID: fmt.Sprintf("%s/%d", tenant, i)}
		}
		return out
	}
	var tasks []AuditTask
	tasks = append(tasks, mk("a", 3)...)
	tasks = append(tasks, mk("b", 1)...)
	tasks = append(tasks, mk("c", 2)...)

	got := FairOrder(tasks, nil)
	want := []string{"a/0", "b/0", "c/0", "a/1", "c/1", "a/2"}
	for i, w := range want {
		if got[i].FileID != w {
			t.Fatalf("FairOrder[%d] = %s, want %s (full: %v)", i, got[i].FileID, w, ids(got))
		}
	}

	weighted := FairOrder(tasks, map[string]int{"a": 2})
	wantW := []string{"a/0", "a/1", "b/0", "c/0", "a/2", "c/1"}
	for i, w := range wantW {
		if weighted[i].FileID != w {
			t.Fatalf("weighted FairOrder[%d] = %s, want %s (full: %v)", i, weighted[i].FileID, w, ids(weighted))
		}
	}

	if out := FairOrder(nil, nil); len(out) != 0 {
		t.Fatalf("FairOrder(nil) = %v", out)
	}
}

func ids(tasks []AuditTask) []string {
	out := make([]string, len(tasks))
	for i, t := range tasks {
		out[i] = t.FileID
	}
	return out
}

// TestSchedulerOverTCP drives the scheduler through the real wire
// transport: a ProverServer on a loopback listener, audits sharing the
// pooled mux connection via PooledRunner.
func TestSchedulerOverTCP(t *testing.T) {
	f := newSchedFixture(t)
	addr, stop := startServer(t, &cloud.HonestProvider{Site: honestSite(t, f.ef)}, false)
	defer stop()

	sched := NewScheduler(SchedulerConfig{Workers: 4, ProverWindow: 2, Timeout: 5 * time.Second})
	sched.RegisterTenant("t1", f.tpa)
	sched.RegisterTenant("t2", f.tpa)
	pool := &ProverPool{DialTimeout: 2 * time.Second}
	defer pool.Close()
	sched.RegisterProver("tcp", &PooledRunner{Verifier: f.verifier, Addr: addr, Pool: pool})

	verdicts := sched.RunEpoch(context.Background(), []AuditTask{
		f.task("t1", "tcp", 3), f.task("t2", "tcp", 3),
		f.task("t1", "tcp", 3), f.task("t2", "tcp", 3),
	})
	for i, v := range verdicts {
		if v.Outcome != OutcomeAccepted {
			t.Fatalf("TCP verdict %d: %v (%s; %s)", i, v.Outcome, v.Err, v.Report.Reason())
		}
	}
	byTenant := sched.Ledger().TotalsByTenant()
	if len(byTenant) != 2 || byTenant[0].Accepted != 2 || byTenant[1].Accepted != 2 {
		t.Fatalf("TotalsByTenant = %+v", byTenant)
	}
}

// TestSchedulerCancelsAbandonedAttempts: every timed-out attempt's
// context is cancelled, so a ctx-aware runner unwinds instead of parking
// a goroutine per abandoned attempt until process exit (the ROADMAP leak
// this PR closes). The release channel is never closed: only
// cancellation can reclaim the attempts.
func TestSchedulerCancelsAbandonedAttempts(t *testing.T) {
	f := newSchedFixture(t)
	hung := &hungRunner{release: make(chan struct{})}
	sched := NewScheduler(SchedulerConfig{
		Workers:      4,
		ProverWindow: 2,
		Timeout:      20 * time.Millisecond,
		Retries:      1,
	})
	sched.RegisterTenant("t1", f.tpa)
	sched.RegisterProver("dead", hung)

	tasks := make([]AuditTask, 6)
	for i := range tasks {
		tasks[i] = f.task("t1", "dead", 2)
	}
	verdicts := sched.RunEpoch(context.Background(), tasks)
	for i, v := range verdicts {
		if v.Outcome != OutcomeTimeout {
			t.Fatalf("verdict %d: outcome %v, want timeout", i, v.Outcome)
		}
	}
	// 6 tasks x 2 attempts all hung; cancellation must drain every one.
	deadline := time.Now().Add(2 * time.Second)
	for hung.active.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d abandoned attempts still parked in the runner; cancellation is not reclaiming them", hung.active.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSchedulerEpochContextCancel: cancelling the epoch's parent context
// drains the remaining tasks promptly as error verdicts (not timeouts),
// without waiting out each per-attempt deadline.
func TestSchedulerEpochContextCancel(t *testing.T) {
	f := newSchedFixture(t)
	hung := &hungRunner{release: make(chan struct{})}
	sched := NewScheduler(SchedulerConfig{
		Workers:      2,
		ProverWindow: 1,
		Timeout:      time.Hour, // per-attempt deadline alone would stall the test
	})
	sched.RegisterTenant("t1", f.tpa)
	sched.RegisterProver("dead", hung)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	done := make(chan []Verdict, 1)
	go func() { done <- sched.RunEpoch(ctx, []AuditTask{f.task("t1", "dead", 2), f.task("t1", "dead", 2)}) }()
	select {
	case verdicts := <-done:
		for i, v := range verdicts {
			if v.Outcome != OutcomeError {
				t.Fatalf("verdict %d after epoch cancel: outcome %v (%s), want error", i, v.Outcome, v.Err)
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled epoch did not drain")
	}
}

// TestSchedulerProverPolicyOverrides: per-prover knobs layer over the
// fleet defaults — a slow prover with a widened per-prover timeout is
// accepted while an identical prover on the fleet deadline times out,
// and a policy can turn retries off for one prover only.
func TestSchedulerProverPolicyOverrides(t *testing.T) {
	f := newSchedFixture(t)
	slow := func() AuditRunner {
		return &countingRunner{
			inner: &localRunner{Verifier: f.verifier, Conn: &memConn{store: f.store}},
			delay: 60 * time.Millisecond,
		}
	}
	sched := NewScheduler(SchedulerConfig{
		Workers:      4,
		ProverWindow: 2,
		Timeout:      20 * time.Millisecond,
		Retries:      0,
	})
	sched.RegisterTenant("t1", f.tpa)
	sched.RegisterProver("slow-default", slow())
	sched.RegisterProverPolicy("slow-wide", slow(), ProverPolicy{Timeout: 5 * time.Second})
	sched.RegisterProverPolicy("slow-nodeadline", slow(), ProverPolicy{Timeout: -1})

	verdicts := sched.RunEpoch(context.Background(), []AuditTask{
		f.task("t1", "slow-default", 2),
		f.task("t1", "slow-wide", 2),
		f.task("t1", "slow-nodeadline", 2),
	})
	byProver := map[string]Verdict{}
	for _, v := range verdicts {
		byProver[v.Task.Prover] = v
	}
	if v := byProver["slow-default"]; v.Outcome != OutcomeTimeout {
		t.Fatalf("slow-default: outcome %v (%s), want timeout under the fleet deadline", v.Outcome, v.Err)
	}
	if v := byProver["slow-wide"]; v.Outcome != OutcomeAccepted {
		t.Fatalf("slow-wide: outcome %v (%s), want accepted under its widened deadline", v.Outcome, v.Err)
	}
	if v := byProver["slow-nodeadline"]; v.Outcome != OutcomeAccepted {
		t.Fatalf("slow-nodeadline: outcome %v (%s), want accepted with no deadline", v.Outcome, v.Err)
	}

	// Retries: fleet default retries twice; a per-prover policy of -1
	// must fail a flaky prover on the first transport error.
	sched2 := NewScheduler(SchedulerConfig{Workers: 1, Retries: 2})
	sched2.RegisterTenant("t1", f.tpa)
	sched2.RegisterProverPolicy("flaky-noretry", &flakyRunner{
		inner:    &localRunner{Verifier: f.verifier, Conn: &memConn{store: f.store}},
		failures: 1,
	}, ProverPolicy{Retries: -1})
	sched2.RegisterProver("flaky-default", &flakyRunner{
		inner:    &localRunner{Verifier: f.verifier, Conn: &memConn{store: f.store}},
		failures: 1,
	})
	verdicts = sched2.RunEpoch(context.Background(), []AuditTask{
		f.task("t1", "flaky-noretry", 2),
		f.task("t1", "flaky-default", 2),
	})
	byProver = map[string]Verdict{}
	for _, v := range verdicts {
		byProver[v.Task.Prover] = v
	}
	if v := byProver["flaky-noretry"]; v.Outcome != OutcomeError || v.Attempts != 1 {
		t.Fatalf("flaky-noretry: %+v, want 1 attempt ending in error", v)
	}
	if v := byProver["flaky-default"]; v.Outcome != OutcomeAccepted || v.Attempts != 2 {
		t.Fatalf("flaky-default: %+v, want acceptance on attempt 2", v)
	}

	// Window: a per-prover window of 1 beats the fleet default of 4.
	counting := &countingRunner{
		inner: &localRunner{Verifier: f.verifier, Conn: &memConn{store: f.store}},
		delay: 2 * time.Millisecond,
	}
	sched3 := NewScheduler(SchedulerConfig{Workers: 8, ProverWindow: 4})
	sched3.RegisterTenant("t1", f.tpa)
	sched3.RegisterProverPolicy("narrow", counting, ProverPolicy{Window: 1})
	tasks := make([]AuditTask, 8)
	for i := range tasks {
		tasks[i] = f.task("t1", "narrow", 2)
	}
	sched3.RunEpoch(context.Background(), tasks)
	if m := counting.max.Load(); m > 1 {
		t.Fatalf("narrow prover saw %d concurrent audits, policy window is 1", m)
	}
}

// TestVerifierRunAuditCancelled: cancelling mid-audit aborts without a
// transcript and surfaces the context error.
func TestVerifierRunAuditCancelled(t *testing.T) {
	f := newSchedFixture(t)
	req, err := f.tpa.NewRequest(f.ef.FileID, f.ef.Layout, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := f.verifier.RunAudit(ctx, req, &memConn{store: f.store}); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunAudit on a cancelled ctx: err = %v, want context.Canceled", err)
	}
}

// TestSchedulerEpochDeadlineNotBlamedOnProver: when the *epoch's* context
// deadline expires, drained tasks must land as error verdicts — a prover
// must only be charged an OutcomeTimeout for its own per-attempt
// deadline, never for the epoch's.
func TestSchedulerEpochDeadlineNotBlamedOnProver(t *testing.T) {
	f := newSchedFixture(t)
	hung := &hungRunner{release: make(chan struct{})}
	sched := NewScheduler(SchedulerConfig{
		Workers:      2,
		ProverWindow: 1,
		Timeout:      time.Hour, // the prover's own deadline never fires
	})
	sched.RegisterTenant("t1", f.tpa)
	sched.RegisterProver("dead", hung)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	done := make(chan []Verdict, 1)
	go func() { done <- sched.RunEpoch(ctx, []AuditTask{f.task("t1", "dead", 2), f.task("t1", "dead", 2)}) }()
	select {
	case verdicts := <-done:
		for i, v := range verdicts {
			if v.Outcome != OutcomeError {
				t.Fatalf("verdict %d after epoch deadline: outcome %v (%s), want error", i, v.Outcome, v.Err)
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("epoch with an expired deadline did not drain")
	}
	entry, ok := sched.Ledger().Entry("t1", "dead", 1)
	if !ok || entry.Timeouts != 0 || entry.Errors != 2 {
		t.Fatalf("ledger entry = %+v, ok=%v; epoch deadline must not count as prover timeouts", entry, ok)
	}
}
