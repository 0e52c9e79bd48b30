package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/vclock"
)

// switchRunner is a prover whose behaviour the test script flips at
// runtime: mode 0 delegates to an honest inner runner, mode 1 fails
// every audit with a deterministic transport error. It also records the
// challenge-round count of the last request it saw, so tests can assert
// the controller's rounds escalation actually reaches the wire.
type switchRunner struct {
	inner AuditRunner
	mode  atomic.Int32
	lastK atomic.Int64
}

func (r *switchRunner) RunAudit(ctx context.Context, req AuditRequest) (SignedTranscript, error) {
	r.lastK.Store(int64(req.K))
	if r.mode.Load() == 1 {
		return SignedTranscript{}, errors.New("prover unreachable")
	}
	return r.inner.RunAudit(ctx, req)
}

// fleetFixture wires a controller in deterministic mode: virtual clock,
// synchronous ticks, seeded jitter.
type fleetFixture struct {
	f     *schedFixture
	clock *vclock.Virtual
	ctl   *FleetController
}

func newFleetFixture(t *testing.T, cfg FleetConfig) *fleetFixture {
	t.Helper()
	f := newSchedFixture(t)
	clock := vclock.NewVirtual(time.Unix(1700000000, 0))
	cfg.Clock = clock
	cfg.Synchronous = true
	if cfg.Scheduler.Workers == 0 {
		cfg.Scheduler.Workers = 1
	}
	ctl := NewFleetController(cfg)
	ctl.RegisterTenant("acme", f.tpa)
	t.Cleanup(func() { ctl.Close() })
	return &fleetFixture{f: f, clock: clock, ctl: ctl}
}

func (x *fleetFixture) honestRunner() AuditRunner {
	return &localRunner{Verifier: x.f.verifier, Conn: &memConn{store: x.f.store}}
}

// step runs one reconcile tick and advances the virtual clock by dt.
func (x *fleetFixture) step(dt time.Duration) {
	x.ctl.Tick()
	x.clock.Advance(dt)
}

// stepUntil ticks until pred(status) holds, failing after maxSteps.
func (x *fleetFixture) stepUntil(t *testing.T, dt time.Duration, maxSteps int, what string, pred func(FleetStatus) bool) FleetStatus {
	t.Helper()
	for i := 0; i < maxSteps; i++ {
		if st := x.ctl.Status(); pred(st) {
			return st
		}
		x.step(dt)
	}
	t.Fatalf("never reached %q after %d steps; status: %+v", what, maxSteps, x.ctl.Status().Provers)
	return FleetStatus{}
}

func proverRow(t *testing.T, st FleetStatus, name string) ProverStatus {
	t.Helper()
	for _, p := range st.Provers {
		if p.Name == name {
			return p
		}
	}
	t.Fatalf("prover %q not in status", name)
	return ProverStatus{}
}

func health(st FleetStatus, name string) string {
	for _, p := range st.Provers {
		if p.Name == name {
			return p.Health
		}
	}
	return ""
}

func auditsOf(l *AuditLedger, prover string) int {
	total := 0
	for _, row := range l.TotalsByProver() {
		if row.Name == prover {
			total = row.Audits
		}
	}
	return total
}

// runEscalationScenario plays the acceptance scenario on a seeded
// deterministic controller and returns its full observable trace: the
// status-API JSON and ledger snapshot at the end, plus every health
// transition in order. Two runs with the same seed must return
// byte-identical traces.
func runEscalationScenario(t *testing.T, seed int64) string {
	t.Helper()
	var trace []string
	cfg := FleetConfig{
		Scheduler:       SchedulerConfig{Workers: 1, Timeout: 2 * time.Second},
		AuditPeriod:     10 * time.Second,
		AuditJitter:     0.2,
		ProbationPeriod: 4 * time.Second,
		SuspectAfter:    1,
		QuarantineAfter: 2,
		ProbationAudits: 2,
		QuarantineBackoff: Backoff{
			Base:   20 * time.Second,
			Max:    80 * time.Second,
			Jitter: 0.3,
		},
		Seed: seed,
		OnTransition: func(prover string, from, to Health, reason string) {
			trace = append(trace, fmt.Sprintf("%s: %s -> %s (%s)", prover, from, to, reason))
		},
	}
	x := newFleetFixture(t, cfg)
	shaky := &switchRunner{inner: x.honestRunner()}
	for _, reg := range []struct {
		name   string
		runner AuditRunner
	}{{"good", x.honestRunner()}, {"shaky", shaky}} {
		err := x.ctl.Register(reg.name, ProverSpec{
			Runner: reg.runner,
			Tasks:  []AuditTask{x.f.task("acme", reg.name, 4)},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	ledger := x.ctl.Ledger()
	const dt = time.Second

	// Phase 1: both provers healthy through a few full periods.
	for i := 0; i < 35; i++ {
		x.step(dt)
	}
	st := x.ctl.Status()
	for _, name := range []string{"good", "shaky"} {
		if h := health(st, name); h != "healthy" {
			t.Fatalf("phase 1: %s health %q, want healthy", name, h)
		}
		if n := auditsOf(ledger, name); n < 3 {
			t.Fatalf("phase 1: %s audited %d times, want >= 3", name, n)
		}
	}
	if k := shaky.lastK.Load(); k != 4 {
		t.Fatalf("healthy prover audited with K=%d, want base 4", k)
	}

	// Phase 2: shaky starts failing. One failed cycle demotes it to
	// suspect with the escalated policy in force.
	shaky.mode.Store(1)
	st = x.stepUntil(t, dt, 60, "shaky suspect", func(st FleetStatus) bool {
		return health(st, "shaky") == "suspect"
	})
	row := proverRow(t, st, "shaky")
	if !row.Escalated {
		t.Fatal("suspect prover not marked escalated")
	}
	if row.Policy.Window != 1 {
		t.Fatalf("escalated window %d, want 1", row.Policy.Window)
	}
	if row.Policy.Timeout != time.Second {
		t.Fatalf("escalated timeout %v, want 1s (half the fleet 2s)", row.Policy.Timeout)
	}
	if row.Policy.Retries != 2 {
		t.Fatalf("escalated retries %d, want 2", row.Policy.Retries)
	}
	if row.Rounds != 2 {
		t.Fatalf("escalated rounds factor %d, want 2", row.Rounds)
	}

	// Phase 3: still failing, the suspect prover is quarantined within a
	// few escalated re-audit periods, and its escalated cycles actually
	// ran at doubled challenge rounds.
	st = x.stepUntil(t, dt, 60, "shaky quarantined", func(st FleetStatus) bool {
		return health(st, "shaky") == "quarantined"
	})
	if k := shaky.lastK.Load(); k != 8 {
		t.Fatalf("escalated audit ran K=%d, want 8 (base 4 doubled)", k)
	}
	if q := proverRow(t, st, "shaky").Quarantines; q != 1 {
		t.Fatalf("quarantine count %d, want 1", q)
	}

	// Phase 4: while quarantined the prover receives no audits at all;
	// the healthy prover keeps being audited. The prover recovers during
	// its quarantine, so the probation audits that follow will pass.
	shaky.mode.Store(0)
	goodBefore := auditsOf(ledger, "good")
	frozen := auditsOf(ledger, "shaky")
	for health(x.ctl.Status(), "shaky") == "quarantined" {
		if n := auditsOf(ledger, "shaky"); n != frozen {
			t.Fatalf("quarantined prover audited: %d -> %d", frozen, n)
		}
		x.step(dt)
	}
	if h := health(x.ctl.Status(), "shaky"); h != "probation" {
		t.Fatalf("left quarantine into %q, want probation", h)
	}
	if n := auditsOf(ledger, "good"); n <= goodBefore {
		t.Fatal("healthy prover starved while shaky was quarantined")
	}

	// Phase 5: consecutive probation audits pass and restore the prover
	// to healthy with the base policy.
	st = x.stepUntil(t, dt, 60, "shaky healthy again", func(st FleetStatus) bool {
		return health(st, "shaky") == "healthy"
	})
	row = proverRow(t, st, "shaky")
	if row.Escalated {
		t.Fatal("recovered prover still escalated")
	}
	if row.Policy != (ProverPolicy{}) {
		t.Fatalf("recovered prover policy %+v, want base (zero)", row.Policy)
	}

	// Let it settle a few more periods, then capture the trace. Measured
	// round-trip times are physical wall-clock observations — the one
	// field of the status API and ledger that legitimately varies between
	// runs — so they are normalized out before the bit-identical compare;
	// every control-plane decision, count, state, and virtual timestamp
	// must match exactly.
	for i := 0; i < 25; i++ {
		x.step(dt)
	}
	final := x.ctl.Status()
	for i := range final.Provers {
		final.Provers[i].LastProbeRTT = 0
	}
	for i := range final.Ledger {
		final.Ledger[i].MaxRTT = 0
	}
	status, err := json.MarshalIndent(final, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	rows := ledger.Snapshot()
	for i := range rows {
		rows[i].MaxRTT = 0
	}
	out := fmt.Sprintf("transitions:\n%v\nstatus:\n%s\nledger:\n%+v\n",
		trace, status, rows)
	return out
}

// TestFleetEscalationScenarioDeterministic is the PR's acceptance
// scenario: a failing prover is escalated (tighter window and timeout,
// more rounds), quarantined within a few jittered periods, starved of
// audits while quarantined, and restored to healthy by probation audits
// after it recovers — and the entire observable trace (status API,
// ledger, transition log) is bit-identical across two runs with the
// same seed on the virtual clock.
func TestFleetEscalationScenarioDeterministic(t *testing.T) {
	a := runEscalationScenario(t, 42)
	b := runEscalationScenario(t, 42)
	if a != b {
		t.Fatalf("same-seed runs diverged:\n--- run A ---\n%s\n--- run B ---\n%s", a, b)
	}
	// A different seed shifts the jittered timings but the same states are
	// still reached (the scenario asserts them internally).
	runEscalationScenario(t, 7)
}

// TestFleetProbeFailuresDemote: consecutive liveness-probe failures are
// enough to demote a healthy prover to suspect — the controller must not
// wait a full audit period to notice a dead prover — and a passing full
// audit immediately clears the suspicion.
func TestFleetProbeFailuresDemote(t *testing.T) {
	var probeFail atomic.Bool
	cfg := FleetConfig{
		Scheduler:         SchedulerConfig{Workers: 1, Timeout: 2 * time.Second},
		AuditPeriod:       time.Hour, // audits far apart: probes drive this test
		ProbePeriod:       time.Second,
		ProbeSuspectAfter: 3,
	}
	x := newFleetFixture(t, cfg)
	err := x.ctl.Register("p", ProverSpec{
		Runner: x.honestRunner(),
		Probe: func(context.Context) (time.Duration, error) {
			if probeFail.Load() {
				return 0, errors.New("ping refused")
			}
			return 3 * time.Millisecond, nil
		},
		Tasks: []AuditTask{x.f.task("acme", "p", 4)},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Admission audit + healthy probes.
	for i := 0; i < 5; i++ {
		x.step(time.Second)
	}
	st := x.ctl.Status()
	if h := health(st, "p"); h != "healthy" {
		t.Fatalf("health %q, want healthy", h)
	}
	if rtt := proverRow(t, st, "p").LastProbeRTT; rtt != 3*time.Millisecond {
		t.Fatalf("probe RTT %v not recorded", rtt)
	}

	// Probes start failing: three misses demote to suspect and schedule an
	// immediate full audit — which passes (the audit path still works) and
	// restores healthy.
	probeFail.Store(true)
	st = x.stepUntil(t, time.Second, 10, "suspect via probes", func(st FleetStatus) bool {
		return proverRow(t, st, "p").ProbeFailures >= 3 || health(st, "p") != "healthy"
	})
	// The demotion and the clearing full audit may land in the same tick;
	// drive one more tick and require the pass to have cleared it.
	probeFail.Store(false)
	st = x.stepUntil(t, time.Second, 10, "healthy after clearing audit", func(st FleetStatus) bool {
		return health(st, "p") == "healthy" && !proverRow(t, st, "p").Escalated
	})
	if n := auditsOf(x.ctl.Ledger(), "p"); n < 2 {
		t.Fatalf("expected the probe demotion to trigger a confirming audit; audits=%d", n)
	}
}

// TestFleetEviction: a prover that keeps failing through repeated
// quarantines is evicted — deregistered from the scheduler, never
// audited again — while staying visible in the status API.
func TestFleetEviction(t *testing.T) {
	cfg := FleetConfig{
		Scheduler:         SchedulerConfig{Workers: 1, Timeout: 2 * time.Second},
		AuditPeriod:       10 * time.Second,
		SuspectAfter:      1,
		QuarantineAfter:   1,
		EvictAfter:        2,
		QuarantineBackoff: Backoff{Base: 5 * time.Second, Max: 5 * time.Second},
	}
	x := newFleetFixture(t, cfg)
	bad := &switchRunner{inner: x.honestRunner()}
	bad.mode.Store(1)
	if err := x.ctl.Register("bad", ProverSpec{
		Runner: bad,
		Tasks:  []AuditTask{x.f.task("acme", "bad", 4)},
	}); err != nil {
		t.Fatal(err)
	}
	st := x.stepUntil(t, time.Second, 120, "evicted", func(st FleetStatus) bool {
		return health(st, "bad") == "evicted"
	})
	if q := proverRow(t, st, "bad").Quarantines; q != 2 {
		t.Fatalf("evicted after %d quarantines, want 2", q)
	}
	// Post-eviction: no more audits ever, status row retained.
	frozen := auditsOf(x.ctl.Ledger(), "bad")
	for i := 0; i < 40; i++ {
		x.step(time.Second)
	}
	if n := auditsOf(x.ctl.Ledger(), "bad"); n != frozen {
		t.Fatalf("evicted prover still audited: %d -> %d", frozen, n)
	}
	if h := health(x.ctl.Status(), "bad"); h != "evicted" {
		t.Fatalf("evicted prover vanished from status (health %q)", h)
	}
	// Deregister fully removes it.
	if err := x.ctl.Deregister("bad", true); err != nil {
		t.Fatal(err)
	}
	if len(x.ctl.Status().Provers) != 0 {
		t.Fatal("deregistered prover still in status")
	}
}

// TestFleetLedgerRetention: continuous operation with RetainEpochs keeps
// the per-epoch ledger bounded, folding old epochs into archive cells
// without losing aggregate history.
func TestFleetLedgerRetention(t *testing.T) {
	cfg := FleetConfig{
		Scheduler:    SchedulerConfig{Workers: 1, Timeout: 2 * time.Second},
		AuditPeriod:  time.Second,
		RetainEpochs: 5,
	}
	x := newFleetFixture(t, cfg)
	if err := x.ctl.Register("p", ProverSpec{
		Runner: x.honestRunner(),
		Tasks:  []AuditTask{x.f.task("acme", "p", 4)},
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		x.step(time.Second)
	}
	epoch := x.ctl.Epoch()
	if epoch < 30 {
		t.Fatalf("epoch %d after 40 ticks", epoch)
	}
	rows := x.ctl.Ledger().Snapshot()
	live := 0
	archived := false
	for _, row := range rows {
		if row.Epoch == 0 {
			archived = true
			continue
		}
		live++
		if row.Epoch < epoch-5 {
			t.Fatalf("epoch %d row survived compaction (now at %d, retain 5)", row.Epoch, epoch)
		}
	}
	if !archived {
		t.Fatal("no archive cell after compaction")
	}
	if live > 6 {
		t.Fatalf("%d live epoch rows, want <= 6", live)
	}
	// Aggregates keep the full history.
	if n := auditsOf(x.ctl.Ledger(), "p"); n < 30 {
		t.Fatalf("aggregate audits %d, want >= 30 (history lost in compaction?)", n)
	}
}

// TestFleetChurnUnderRace exercises join/leave/forced-leave racing the
// production reconcile loop under -race: graceful leaves drain in-flight
// audits (no verdict lands after Deregister returns), forced leaves
// cancel a hung audit promptly, and the controller drains to zero
// goroutines on Close.
func TestFleetChurnUnderRace(t *testing.T) {
	f := newSchedFixture(t)
	before := runtime.NumGoroutine()
	cfg := FleetConfig{
		Scheduler:   SchedulerConfig{Workers: 4, Timeout: 2 * time.Second},
		AuditPeriod: 2 * time.Millisecond,
		AuditJitter: 0.2,
		Seed:        1,
	}
	ctl := NewFleetController(cfg)
	ctl.RegisterTenant("acme", f.tpa)
	honest := func() AuditRunner {
		return &localRunner{Verifier: f.verifier, Conn: &memConn{store: f.store}}
	}

	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan struct{})
	go func() {
		defer close(runDone)
		ctl.Run(ctx)
	}()

	// Churn workers: each repeatedly registers a private prover, lets it
	// be audited, then leaves gracefully and verifies no verdict lands
	// afterwards.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				name := fmt.Sprintf("p%d-%d", w, i)
				err := ctl.Register(name, ProverSpec{
					Runner: honest(),
					Tasks:  []AuditTask{f.task("acme", name, 2)},
				})
				if err != nil {
					t.Error(err)
					return
				}
				// Let at least one audit cycle land.
				deadline := time.Now().Add(5 * time.Second)
				for auditsOf(ctl.Ledger(), name) == 0 {
					if time.Now().After(deadline) {
						t.Errorf("%s never audited", name)
						return
					}
					time.Sleep(time.Millisecond)
				}
				if err := ctl.Deregister(name, true); err != nil {
					t.Error(err)
					return
				}
				frozen := auditsOf(ctl.Ledger(), name)
				time.Sleep(5 * time.Millisecond)
				if n := auditsOf(ctl.Ledger(), name); n != frozen {
					t.Errorf("verdict landed after graceful leave of %s: %d -> %d", name, frozen, n)
					return
				}
			}
		}(w)
	}

	// Forced leave: a hung prover's in-flight audit must not block
	// Deregister(force) — cancellation unwinds it.
	hung := &hungRunner{release: make(chan struct{})}
	if err := ctl.Register("hung", ProverSpec{
		Runner: hung,
		Tasks:  []AuditTask{f.task("acme", "hung", 2)},
	}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for hung.active.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("hung prover never entered an audit")
		}
		time.Sleep(time.Millisecond)
	}
	forced := make(chan error, 1)
	go func() { forced <- ctl.Deregister("hung", false) }()
	select {
	case err := <-forced:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("forced Deregister blocked on a hung in-flight audit")
	}

	wg.Wait()
	cancel()
	<-runDone
	ctl.Close()

	// Everything drained: no leaked audit/probe goroutines.
	settleGoroutines(t, before)
}

// TestFleetRegisterErrors covers the registry edge cases.
func TestFleetRegisterErrors(t *testing.T) {
	x := newFleetFixture(t, FleetConfig{})
	if err := x.ctl.Register("", ProverSpec{Runner: x.honestRunner()}); err == nil {
		t.Fatal("registered with empty name")
	}
	if err := x.ctl.Register("p", ProverSpec{}); err == nil {
		t.Fatal("registered without a runner")
	}
	if err := x.ctl.Register("p", ProverSpec{Runner: x.honestRunner()}); err != nil {
		t.Fatal(err)
	}
	if err := x.ctl.Register("p", ProverSpec{Runner: x.honestRunner()}); !errors.Is(err, ErrProverExists) {
		t.Fatalf("duplicate Register: %v", err)
	}
	if err := x.ctl.Deregister("ghost", true); !errors.Is(err, ErrUnknownProver) {
		t.Fatalf("unknown Deregister: %v", err)
	}
	x.ctl.Close()
	if err := x.ctl.Register("q", ProverSpec{Runner: x.honestRunner()}); !errors.Is(err, ErrFleetClosed) {
		t.Fatalf("Register after Close: %v", err)
	}
}
