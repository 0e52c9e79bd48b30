package core

// This file is the fleet control plane: the reconciler that turns the
// caller-driven Scheduler ("run this epoch of audits") into a
// self-driving auditor ("keep this fleet audited, notice degradation,
// react without an operator"). A FleetController owns a dynamic prover
// registry (join and leave at runtime, with in-flight audit draining),
// schedules continuous per-prover re-audit cycles on jittered periods,
// and drives a per-prover health state machine with automatic policy
// escalation. A prover is observed only through its audits: a dead
// prover, or a dead verifier device in front of it, fails its cycle like
// any other failed audit.
//
//	                     1 failed cycle
//	  Healthy ────────────────────────────────────▶ Suspect
//	    ▲                                             │
//	    │ cycle passes                                │ 2 failed cycles
//	    │ (base policy restored)                      │ while suspect
//	    │                                             ▼
//	    │      2 probation passes in a row      Quarantined ──▶ Evicted
//	    │      (AuditPeriod/4 apart)                  │   (quarantine entries
//	  Probation ◀─────────────────────────────────────┘    ≥ EvictAfter)
//	    │              quarantine backoff expired
//	    └──▶ back to Quarantined on any probation failure
//
// A Suspect prover is audited under an escalated ProverPolicy — window
// 1, half the per-attempt timeout (at least 1 ms; a prover with no
// deadline keeps none), twice the challenge rounds (at most the file's
// segments), and 2 retries backing off from 10 ms — so the controller
// reaches a confident verdict quickly instead of letting a degraded
// prover linger at the fleet defaults. A Quarantined prover receives no
// full audits at all; after a delay that starts at AuditPeriod, doubles
// with each quarantine and is capped at 8·AuditPeriod, it earns
// probation audits, and only a clean probation streak restores it to
// Healthy with the fleet's base policy. Repeat offenders are evicted:
// deregistered from the scheduler, their warm pooled connections closed.
// These thresholds are the constants below, not FleetConfig knobs.
//
// Determinism: the controller never calls time.Now or the global rand —
// it is handed a vclock.Clock and derives one seeded rand.Rand per
// prover (Seed ⊕ FNV(name)), in the style of the pkg/clock guardrail.
// In Synchronous mode every due cycle runs inline on Tick in sorted
// prover order, so a scenario on a virtual clock replays bit-identically
// run after run. Production uses Run, which ticks on the wall clock with
// cycles dispatched concurrently.

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/vclock"
)

// Health is a prover's position in the controller's state machine.
type Health int

// Health states, in escalation order.
const (
	// HealthHealthy: full audits at the base period, base policy.
	HealthHealthy Health = iota
	// HealthSuspect: full audits at half the base period under the
	// escalated policy.
	HealthSuspect
	// HealthProbation: single probation audits (escalated policy) on the
	// probation period; a clean streak restores Healthy.
	HealthProbation
	// HealthQuarantined: no audits until the quarantine backoff expires,
	// then Probation.
	HealthQuarantined
	// HealthEvicted: terminal; deregistered from the scheduler, pooled
	// connections closed, visible in Status until Deregister.
	HealthEvicted
)

// String returns the lower-case state name used by the status API.
func (h Health) String() string {
	switch h {
	case HealthHealthy:
		return "healthy"
	case HealthSuspect:
		return "suspect"
	case HealthProbation:
		return "probation"
	case HealthQuarantined:
		return "quarantined"
	case HealthEvicted:
		return "evicted"
	default:
		return fmt.Sprintf("health(%d)", int(h))
	}
}

// Errors reported by the fleet controller.
var (
	ErrFleetClosed   = errors.New("core: fleet controller closed")
	ErrUnknownProver = errors.New("core: prover not registered with the fleet controller")
	ErrProverExists  = errors.New("core: prover already registered with the fleet controller")
)

// ProverSpec describes one prover joining the fleet.
type ProverSpec struct {
	// Runner executes this prover's audits (required): a DeviceRunner
	// for a TPA auditing through the verifier device beside the prover,
	// whose pooled connection is closed when the prover leaves or is
	// evicted.
	Runner AuditRunner
	// Tasks are the audit templates run each cycle; their Prover field
	// is overwritten with the registered name.
	Tasks []AuditTask
}

// The health machine's thresholds and the escalated policy. Periods are
// fractions or multiples of FleetConfig.AuditPeriod.
const (
	// suspectAfter failed cycles demote Healthy to Suspect.
	suspectAfter = 1
	// quarantineAfter failed cycles while Suspect enter Quarantine.
	quarantineAfter = 2
	// probationAudits clean probation audits in a row, spaced
	// AuditPeriod/probationDivisor, restore Healthy.
	probationAudits  = 2
	probationDivisor = 4
	// The quarantine delay starts at AuditPeriod and doubles with each
	// quarantine, capped at quarantineCap·AuditPeriod.
	quarantineCap = 8
	// While escalated: window 1, the per-attempt timeout halved and
	// floored at escalatedMinTimeout, escalatedRounds× challenge rounds
	// (at most the file's segments), and escalatedRetries retries backing
	// off from escalatedRetryBackoff.
	escalatedMinTimeout   = time.Millisecond
	escalatedRounds       = 2
	escalatedRetries      = 2
	escalatedRetryBackoff = 10 * time.Millisecond
)

// FleetConfig carries the controller's knobs. The zero value of every
// field is usable; defaults are noted per field.
type FleetConfig struct {
	// Scheduler configures the controller's inner audit scheduler
	// (workers, fleet-wide window/timeout/retries, verdict hook).
	Scheduler SchedulerConfig
	// AuditPeriod is the base full re-audit period per prover
	// (default 30s).
	AuditPeriod time.Duration
	// AuditJitter in [0, 1] spreads each period uniformly over
	// ±AuditJitter·period (default 0: fixed periods), decorrelating
	// provers that joined together.
	AuditJitter float64
	// EvictAfter evicts a prover entering quarantine for the N-th time
	// (0 = never evict).
	EvictAfter int
	// Clock is the controller's time source (nil = wall clock).
	Clock vclock.Clock
	// Seed derives each prover's private AuditJitter rand (Seed ⊕
	// FNV(name)), so scenario runs replay identically.
	Seed int64
	// Synchronous runs due cycles inline on Tick, in sorted prover order
	// — the deterministic-replay mode. Production leaves it false: work is
	// dispatched on goroutines so one hung prover cannot stall the fleet's
	// reconcile loop.
	Synchronous bool
	// OnTransition observes every health transition; it is called after
	// the controller releases its lock and may call back into it.
	OnTransition func(prover string, from, to Health, reason string)
}

// fleetProver is the controller's per-prover reconcile state.
type fleetProver struct {
	name string
	spec ProverSpec
	rng  *rand.Rand

	ctx    context.Context
	cancel context.CancelFunc
	// inflight counts this prover's dispatched cycles, so a leave can
	// drain to zero before deregistering.
	inflight sync.WaitGroup

	health   Health
	since    time.Time
	draining bool
	busy     bool // audit cycle in flight

	consecFail    int // consecutive failed cycles in the current state
	probationPass int
	probationSeq  int // rotates which task probation audits use
	quarantines   int

	nextAudit time.Time

	cycles      uint64
	cycleFails  uint64
	lastEpoch   uint64
	lastOutcome string
	lastReason  string
}

// transitionEvent is a queued OnTransition callback, fired outside the
// controller lock.
type transitionEvent struct {
	prover   string
	from, to Health
	reason   string
}

// FleetController reconciles desired state ("every registered prover is
// continuously audited and healthy") with observed state (audit
// verdicts). See the file comment for the state machine. Construct
// with NewFleetController; drive with Run (production) or Tick + Wait +
// a virtual clock (deterministic scenarios).
type FleetController struct {
	cfg   FleetConfig
	sched *Scheduler
	clock vclock.Clock
	// escalated is the policy a Suspect or Probation prover is audited
	// under; Healthy provers run the scheduler's fleet defaults.
	escalated ProverPolicy

	baseCtx context.Context
	stop    context.CancelFunc

	mu      sync.Mutex
	provers map[string]*fleetProver
	epoch   uint64
	closed  bool
	wg      sync.WaitGroup // all in-flight cycles
}

// NewFleetController builds a controller and its inner scheduler from
// cfg. Register tenants and provers, then Run it (or Tick it manually).
func NewFleetController(cfg FleetConfig) *FleetController {
	if cfg.AuditPeriod <= 0 {
		cfg.AuditPeriod = 30 * time.Second
	}
	clock := cfg.Clock
	if clock == nil {
		clock = vclock.Real{}
	}
	// The inner scheduler inherits the fleet clock unless the caller
	// pinned its own, so verdict timing and retry pacing ride the same
	// (possibly virtual) timeline as the health state machine.
	if cfg.Scheduler.Clock == nil {
		cfg.Scheduler.Clock = clock
	}
	escalated := ProverPolicy{
		Window:       1,
		Retries:      escalatedRetries,
		RetryBackoff: escalatedRetryBackoff,
	}
	if t := cfg.Scheduler.Timeout; t > 0 {
		escalated.Timeout = max(t/2, escalatedMinTimeout)
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &FleetController{
		cfg:       cfg,
		sched:     NewScheduler(cfg.Scheduler),
		clock:     clock,
		escalated: escalated,
		baseCtx:   ctx,
		stop:      cancel,
		provers:   make(map[string]*fleetProver),
	}
}

// Scheduler exposes the controller's inner scheduler (for tenant
// registration helpers and tests).
func (c *FleetController) Scheduler() *Scheduler { return c.sched }

// Ledger exposes the verdict ledger the controller's audits feed.
func (c *FleetController) Ledger() *AuditLedger { return c.sched.Ledger() }

// RegisterTenant installs the auditor acting for a tenant, exactly as on
// the scheduler.
func (c *FleetController) RegisterTenant(name string, tpa *TPA) {
	c.sched.RegisterTenant(name, tpa)
}

// Register joins a prover to the fleet: it enters Healthy with its first
// full audit due immediately (the admission check). Safe at runtime —
// the next tick picks the prover up; no epoch is disturbed.
func (c *FleetController) Register(name string, spec ProverSpec) error {
	if name == "" || spec.Runner == nil {
		return fmt.Errorf("core: fleet Register needs a name and a runner")
	}
	tasks := make([]AuditTask, len(spec.Tasks))
	copy(tasks, spec.Tasks)
	for i := range tasks {
		tasks[i].Prover = name
	}
	spec.Tasks = tasks
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrFleetClosed
	}
	if _, ok := c.provers[name]; ok {
		return fmt.Errorf("%w: %q", ErrProverExists, name)
	}
	h := fnv.New64a()
	h.Write([]byte(name))
	ctx, cancel := context.WithCancel(c.baseCtx)
	now := c.clock.Now()
	p := &fleetProver{
		name:      name,
		spec:      spec,
		rng:       rand.New(rand.NewSource(c.cfg.Seed ^ int64(h.Sum64()))),
		ctx:       ctx,
		cancel:    cancel,
		health:    HealthHealthy,
		since:     now,
		nextAudit: now,
	}
	c.sched.RegisterProver(name, spec.Runner)
	c.provers[name] = p
	return nil
}

// Deregister removes a prover. Graceful leave (graceful=true) stops
// scheduling new work, lets in-flight audits finish, then deregisters;
// forced leave cancels them first and drains the cancellations. Either
// way, once Deregister returns no further verdict for this prover can
// land in the ledger, and its runner's warm pooled connection is closed.
func (c *FleetController) Deregister(name string, graceful bool) error {
	c.mu.Lock()
	p, ok := c.provers[name]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownProver, name)
	}
	p.draining = true
	c.mu.Unlock()
	if !graceful {
		p.cancel()
	}
	p.inflight.Wait()
	c.sched.DeregisterProver(name)
	evictConn(p.spec.Runner)
	p.cancel()
	c.mu.Lock()
	delete(c.provers, name)
	c.mu.Unlock()
	return nil
}

// Close stops the controller: in-flight cycles are cancelled and
// drained, later Ticks and Registers fail. The ledger stays readable.
func (c *FleetController) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	c.stop()
	c.wg.Wait()
	return nil
}

// Wait blocks until every dispatched cycle has finished — the
// barrier deterministic tests use between Tick and advancing the clock.
func (c *FleetController) Wait() { c.wg.Wait() }

// jittered spreads d over ±cfg.AuditJitter·d using the prover's seeded
// rand. Jitter 0 performs no draw, keeping rand streams stable for
// configurations that don't want it.
func (c *FleetController) jittered(p *fleetProver, d time.Duration) time.Duration {
	if d <= 0 || c.cfg.AuditJitter <= 0 {
		return d
	}
	j := c.cfg.AuditJitter
	if j > 1 {
		j = 1
	}
	return time.Duration(float64(d) * (1 + j*(2*p.rng.Float64()-1)))
}

// cycleTasks returns the audit batch for the prover's current state: the
// full task list when Healthy, the full list at escalatedRounds× rounds
// when Suspect, and a single rotating escalatedRounds× task in Probation.
// Escalated rounds are capped at the file's segments.
func (c *FleetController) cycleTasks(p *fleetProver) []AuditTask {
	if len(p.spec.Tasks) == 0 {
		return nil
	}
	switch p.health {
	case HealthHealthy:
		return p.spec.Tasks
	case HealthProbation:
		t := p.spec.Tasks[p.probationSeq%len(p.spec.Tasks)]
		p.probationSeq++
		t.K = min(t.K*escalatedRounds, int(t.Layout.Segments))
		return []AuditTask{t}
	default: // Suspect
		tasks := make([]AuditTask, len(p.spec.Tasks))
		copy(tasks, p.spec.Tasks)
		for i := range tasks {
			tasks[i].K = min(tasks[i].K*escalatedRounds, int(tasks[i].Layout.Segments))
		}
		return tasks
	}
}

// Tick runs one reconcile pass at the controller clock's current
// instant: every prover whose audit cycle is due gets it
// dispatched (inline in sorted order when Synchronous, on goroutines
// otherwise). It returns how many cycles were dispatched. Quarantined
// provers whose quarantine delay has expired transition to Probation
// here.
func (c *FleetController) Tick() int {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0
	}
	now := c.clock.Now()
	c.epoch++
	epoch := c.epoch
	names := make([]string, 0, len(c.provers))
	for name := range c.provers {
		names = append(names, name)
	}
	sort.Strings(names)
	var work []func()
	var events []transitionEvent
	for _, name := range names {
		p := c.provers[name]
		if p.draining || p.health == HealthEvicted {
			continue
		}
		if p.busy || now.Before(p.nextAudit) {
			continue
		}
		if p.health == HealthQuarantined {
			events = append(events, c.transition(p, HealthProbation, "quarantine backoff expired", now))
			p.probationPass = 0
		}
		tasks := c.cycleTasks(p)
		if len(tasks) == 0 {
			// Nothing to audit (yet): check again a period from now.
			p.nextAudit = now.Add(c.jittered(p, c.cfg.AuditPeriod))
			continue
		}
		p.busy = true
		p.inflight.Add(1)
		c.wg.Add(1)
		work = append(work, func() { c.runCycle(p, epoch, tasks) })
	}
	c.mu.Unlock()
	c.fire(events)
	for _, w := range work {
		if c.cfg.Synchronous {
			w()
		} else {
			go w()
		}
	}
	return len(work)
}

// Run is the production reconcile loop: tick, sleep on the controller's
// clock until the next due instant (capped so late registrations are
// noticed), repeat until ctx is done. In-flight work is cancelled and
// drained before it returns. Run is meant for the real clock —
// deterministic harnesses drive Tick and the virtual clock themselves.
func (c *FleetController) Run(ctx context.Context) error {
	defer func() {
		c.stop()
		c.wg.Wait()
	}()
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		c.Tick()
		if err := vclock.SleepContext(c.clock, ctx, c.untilNextDue()); err != nil {
			return err
		}
	}
}

// untilNextDue computes the sleep to the earliest pending audit,
// clamped to [5ms, 500ms] so the loop neither spins nor sleeps
// through a runtime Register.
func (c *FleetController) untilNextDue() time.Duration {
	const (
		floor   = 5 * time.Millisecond
		ceiling = 500 * time.Millisecond
	)
	now := c.clock.Now()
	next := now.Add(ceiling)
	c.mu.Lock()
	for _, p := range c.provers {
		if p.draining || p.health == HealthEvicted {
			continue
		}
		if !p.busy && p.nextAudit.Before(next) {
			next = p.nextAudit
		}
	}
	c.mu.Unlock()
	d := next.Sub(now)
	if d < floor {
		return floor
	}
	if d > ceiling {
		return ceiling
	}
	return d
}

// runCycle executes one audit cycle (a numbered mini-epoch of this
// prover's tasks) and applies the verdict to the state machine.
func (c *FleetController) runCycle(p *fleetProver, epoch uint64, tasks []AuditTask) {
	defer c.wg.Done()
	defer p.inflight.Done()
	verdicts := c.sched.RunEpochNumbered(p.ctx, epoch, tasks)
	pass := len(verdicts) > 0
	worst := OutcomeAccepted
	reason := ""
	for _, v := range verdicts {
		if v.Outcome == OutcomeAccepted {
			continue
		}
		pass = false
		if v.Outcome > worst {
			worst = v.Outcome
		}
		if reason == "" {
			if v.Outcome == OutcomeRejected {
				reason = v.Report.Reason()
			} else {
				reason = v.Err
			}
		}
	}
	c.mu.Lock()
	p.busy = false
	now := c.clock.Now()
	p.cycles++
	p.lastEpoch = epoch
	p.lastOutcome = worst.String()
	p.lastReason = reason
	if !pass {
		p.cycleFails++
	}
	var events []transitionEvent
	if !p.draining && p.health != HealthEvicted {
		events = c.applyCycle(p, pass, reason, now)
	}
	c.mu.Unlock()
	c.fire(events)
}

// applyCycle advances the state machine after a finished cycle and
// schedules the next one. Caller holds c.mu.
func (c *FleetController) applyCycle(p *fleetProver, pass bool, reason string, now time.Time) []transitionEvent {
	var events []transitionEvent
	switch p.health {
	case HealthHealthy:
		if pass {
			p.consecFail = 0
			p.nextAudit = now.Add(c.jittered(p, c.cfg.AuditPeriod))
			break
		}
		p.consecFail++
		if p.consecFail >= suspectAfter {
			events = append(events, c.transition(p, HealthSuspect, reason, now))
			c.escalate(p)
			p.consecFail = 0
		}
		p.nextAudit = now.Add(c.jittered(p, c.cfg.AuditPeriod/2))
	case HealthSuspect:
		if pass {
			events = append(events, c.transition(p, HealthHealthy, "full audit passed", now))
			c.restore(p)
			p.consecFail = 0
			p.nextAudit = now.Add(c.jittered(p, c.cfg.AuditPeriod))
			break
		}
		p.consecFail++
		if p.consecFail >= quarantineAfter {
			events = append(events, c.quarantine(p, reason, now)...)
		} else {
			p.nextAudit = now.Add(c.jittered(p, c.cfg.AuditPeriod/2))
		}
	case HealthProbation:
		if pass {
			p.probationPass++
			if p.probationPass >= probationAudits {
				events = append(events, c.transition(p, HealthHealthy,
					fmt.Sprintf("%d probation audits passed", p.probationPass), now))
				c.restore(p)
				p.consecFail = 0
				p.probationPass = 0
				p.nextAudit = now.Add(c.jittered(p, c.cfg.AuditPeriod))
			} else {
				p.nextAudit = now.Add(c.jittered(p, c.cfg.AuditPeriod/probationDivisor))
			}
			break
		}
		events = append(events, c.quarantine(p, reason, now)...)
	}
	return events
}

// quarantine moves a prover into Quarantined (or Evicted once its
// quarantine count reaches EvictAfter) and schedules the probation
// wake-up after the doubling quarantine delay. Caller holds c.mu.
func (c *FleetController) quarantine(p *fleetProver, reason string, now time.Time) []transitionEvent {
	p.quarantines++
	p.consecFail = 0
	if c.cfg.EvictAfter > 0 && p.quarantines >= c.cfg.EvictAfter {
		ev := c.transition(p, HealthEvicted,
			fmt.Sprintf("quarantined %d times: %s", p.quarantines, reason), now)
		c.sched.DeregisterProver(p.name)
		evictConn(p.spec.Runner)
		p.cancel()
		return []transitionEvent{ev}
	}
	ev := c.transition(p, HealthQuarantined, reason, now)
	b := Backoff{Base: c.cfg.AuditPeriod, Max: quarantineCap * c.cfg.AuditPeriod}
	p.nextAudit = now.Add(b.Delay(p.quarantines - 1))
	return []transitionEvent{ev}
}

// evictConn closes the warm pooled connection of a prover audited
// through a DeviceRunner, so nothing lingers to a device that has left:
// a later audit of the same address dials afresh.
func evictConn(r AuditRunner) {
	if d, ok := r.(DeviceRunner); ok && d.Pool != nil {
		d.Pool.Evict(d.Addr)
	}
}

// escalate swaps the prover's scheduler policy for the tightened one.
// Caller holds c.mu.
func (c *FleetController) escalate(p *fleetProver) {
	c.sched.RegisterProverPolicy(p.name, p.spec.Runner, c.escalated)
}

// restore reinstates the fleet's base policy. Caller holds c.mu.
func (c *FleetController) restore(p *fleetProver) {
	c.sched.RegisterProver(p.name, p.spec.Runner)
}

// transition records a state change; the returned event is fired via
// fire once the lock is released. Caller holds c.mu.
func (c *FleetController) transition(p *fleetProver, to Health, reason string, now time.Time) transitionEvent {
	ev := transitionEvent{prover: p.name, from: p.health, to: to, reason: reason}
	metricFleetTransitions.With(to.String()).Inc()
	if p.health == HealthQuarantined {
		metricFleetQuarantineSeconds.ObserveDuration(now.Sub(p.since))
	}
	p.health = to
	p.since = now
	return ev
}

// fire delivers queued transition events to the OnTransition hook.
func (c *FleetController) fire(events []transitionEvent) {
	if c.cfg.OnTransition == nil {
		return
	}
	for _, ev := range events {
		c.cfg.OnTransition(ev.prover, ev.from, ev.to, ev.reason)
	}
}

// ProverStatus is one prover's row in the status API.
type ProverStatus struct {
	Name   string    `json:"name"`
	Health string    `json:"health"`
	Since  time.Time `json:"since"`
	// Escalated reports whether the tightened policy is in force.
	Escalated bool `json:"escalated"`
	// Policy is the scheduler policy currently applied: zero (the fleet
	// defaults) or the escalated one.
	Policy ProverPolicy `json:"policy"`
	// Rounds is the challenge-round multiplier the next cycle will use.
	Rounds              int       `json:"roundsFactor"`
	ConsecutiveFailures int       `json:"consecutiveFailures"`
	Quarantines         int       `json:"quarantines"`
	ProbationPasses     int       `json:"probationPasses"`
	Cycles              uint64    `json:"cycles"`
	CycleFailures       uint64    `json:"cycleFailures"`
	LastEpoch           uint64    `json:"lastEpoch"`
	LastOutcome         string    `json:"lastOutcome,omitempty"`
	LastReason          string    `json:"lastReason,omitempty"`
	NextAudit           time.Time `json:"nextAudit"`
	Draining            bool      `json:"draining,omitempty"`
}

// FleetStatus is the controller's full observable state: the health
// matrix plus the ledger's per-prover totals — what geoverify serves as
// JSON.
type FleetStatus struct {
	Now     time.Time      `json:"now"`
	Epoch   uint64         `json:"epoch"`
	Provers []ProverStatus `json:"provers"`
	Ledger  []LedgerTotals `json:"ledger"`
}

// Status snapshots the fleet, provers sorted by name. On a virtual
// clock with Synchronous ticks the snapshot is bit-identical across
// seeded runs.
func (c *FleetController) Status() FleetStatus {
	c.mu.Lock()
	st := FleetStatus{Now: c.clock.Now(), Epoch: c.epoch}
	for _, p := range c.provers {
		escalated := p.health == HealthSuspect || p.health == HealthProbation
		var policy ProverPolicy
		rounds := 1
		if escalated {
			policy = c.escalated
			rounds = escalatedRounds
		}
		st.Provers = append(st.Provers, ProverStatus{
			Name:                p.name,
			Health:              p.health.String(),
			Since:               p.since,
			Escalated:           escalated,
			Policy:              policy,
			Rounds:              rounds,
			ConsecutiveFailures: p.consecFail,
			Quarantines:         p.quarantines,
			ProbationPasses:     p.probationPass,
			Cycles:              p.cycles,
			CycleFailures:       p.cycleFails,
			LastEpoch:           p.lastEpoch,
			LastOutcome:         p.lastOutcome,
			LastReason:          p.lastReason,
			NextAudit:           p.nextAudit,
			Draining:            p.draining,
		})
	}
	c.mu.Unlock()
	sort.Slice(st.Provers, func(i, j int) bool { return st.Provers[i].Name < st.Provers[j].Name })
	st.Ledger = c.sched.Ledger().TotalsByProver()
	return st
}
