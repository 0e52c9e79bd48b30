package core

// This file is the TPA-side audit scheduler: the layer that turns "a TPA
// can verify one transcript" into "a TPA continuously audits many tenants'
// files across many providers". It owns dispatch order (per-tenant
// fairness), back-pressure (a bounded in-flight window per prover),
// failure policy (per-attempt timeout, bounded retries) and bookkeeping
// (an AuditLedger of verdicts per prover). The actual
// challenge-response rounds are delegated to an AuditRunner, so the same
// scheduler drives a local verifier device dialing provers (over TCP or a
// simulated network) and fully remote verifier daemons.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blockfile"
	"repro/internal/parallel"
	"repro/internal/telemetry"
	"repro/internal/vclock"
)

// ErrAuditTimeout reports that a scheduled audit attempt exceeded the
// scheduler's per-attempt deadline before a transcript came back.
var ErrAuditTimeout = errors.New("core: audit attempt timed out")

// AuditRunner executes one audit end to end — timed challenge rounds
// against a prover, returning the verifier-signed transcript. The
// scheduler is transport-agnostic through this interface:
//
//   - PooledRunner: in-process verifier over a ProverPool of persistent
//     multiplexed prover connections, dialed over TCP or, through the
//     pool's Dial seam, over a simulated network on virtual time — what
//     a verifier device (geoverifierd's VerifierServer) runs,
//   - DeviceRunner: a MuxProverConn to a verifier device, borrowed from
//     a ProverPool per audit — what a TPA runs (geoverify, and the
//     testnet's TPA node): fully distributed — each audit is shipped to
//     the device on its own stream and the device runs the rounds beside
//     its prover; concurrent audits share the one warm connection.
//
// RunAudit must honour ctx: when the scheduler abandons a timed-out
// attempt it cancels the context, and a conforming runner returns
// promptly instead of leaking its goroutine against a hung prover.
type AuditRunner interface {
	RunAudit(ctx context.Context, req AuditRequest) (SignedTranscript, error)
}

// AuditTask is one scheduled audit: which tenant wants which file checked
// on which prover, and how many timed rounds to run.
type AuditTask struct {
	Tenant string
	Prover string
	FileID string
	Layout blockfile.Layout
	K      int
}

// Outcome classifies a scheduled audit's final result.
type Outcome int

// Outcomes, from best to worst.
const (
	// OutcomeAccepted: a transcript came back and passed every policy
	// check.
	OutcomeAccepted Outcome = iota
	// OutcomeRejected: a transcript came back but failed verification
	// (bad MACs, timing over Δt_max, position outside the SLA, …). The
	// Report carries the broken-out reasons. Rejections are verdicts, not
	// transient faults, so they are never retried.
	OutcomeRejected
	// OutcomeTimeout: no transcript within the per-attempt deadline on
	// any attempt.
	OutcomeTimeout
	// OutcomeError: transport or configuration failure (dial refused,
	// unregistered tenant/prover, bad request) on every attempt.
	OutcomeError
)

// String returns the lower-case verdict label.
func (o Outcome) String() string {
	switch o {
	case OutcomeAccepted:
		return "accepted"
	case OutcomeRejected:
		return "rejected"
	case OutcomeTimeout:
		return "timeout"
	case OutcomeError:
		return "error"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// Verdict is the scheduler's record of one finished audit.
type Verdict struct {
	Task    AuditTask
	Epoch   uint64
	Outcome Outcome
	// Report is the TPA's broken-out verification result; meaningful only
	// for OutcomeAccepted and OutcomeRejected.
	Report Report
	// Err describes the last transport failure for OutcomeTimeout and
	// OutcomeError.
	Err      string
	Attempts int
	Elapsed  time.Duration
}

// LedgerEntry aggregates the verdicts recorded for one prover.
type LedgerEntry struct {
	Audits   int
	Accepted int
	Rejected int
	Timeouts int
	Errors   int
	// MaxRTT is the worst round-trip time any verified transcript in this
	// cell reported.
	MaxRTT time.Duration
	// LastReason keeps the most recent rejection/error detail for display.
	LastReason string
}

// add folds one verdict into the entry.
func (e *LedgerEntry) add(v Verdict) {
	e.Audits++
	switch v.Outcome {
	case OutcomeAccepted:
		e.Accepted++
	case OutcomeRejected:
		e.Rejected++
		e.LastReason = v.Report.Reason()
	case OutcomeTimeout:
		e.Timeouts++
		e.LastReason = v.Err
	case OutcomeError:
		e.Errors++
		e.LastReason = v.Err
	}
	if v.Report.MaxRTT > e.MaxRTT {
		e.MaxRTT = v.Report.MaxRTT
	}
}

// AuditLedger aggregates verdicts per prover: one cell each, so its size
// follows the fleet, not how long it has run. It is safe for concurrent
// use; the scheduler records every verdict as it lands. Per-tenant or
// per-epoch views are the business of a SchedulerConfig.OnVerdict hook.
type AuditLedger struct {
	mu      sync.Mutex
	entries map[string]*LedgerEntry
}

// Record folds one verdict into its prover's cell.
func (l *AuditLedger) Record(v Verdict) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e, ok := l.entries[v.Task.Prover]
	if !ok {
		e = &LedgerEntry{}
		l.entries[v.Task.Prover] = e
	}
	e.add(v)
}

// LedgerTotals is one prover's line of the ledger.
type LedgerTotals struct {
	Name string
	LedgerEntry
}

// TotalsByProver returns every prover's cell, sorted by name.
func (l *AuditLedger) TotalsByProver() []LedgerTotals {
	l.mu.Lock()
	rows := make([]LedgerTotals, 0, len(l.entries))
	for name, e := range l.entries {
		rows = append(rows, LedgerTotals{Name: name, LedgerEntry: *e})
	}
	l.mu.Unlock()
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows
}

// FairOrder interleaves tasks round-robin across tenants: each round every
// tenant with tasks left contributes its next one. Relative order within
// a tenant is preserved, tenants take turns in order of first appearance,
// and the result is deterministic — so a burst of 10 000 tasks from one
// tenant cannot starve the tenant that queued 10.
func FairOrder(tasks []AuditTask) []AuditTask {
	queues := make(map[string][]AuditTask)
	var tenants []string
	for _, t := range tasks {
		if _, ok := queues[t.Tenant]; !ok {
			tenants = append(tenants, t.Tenant)
		}
		queues[t.Tenant] = append(queues[t.Tenant], t)
	}
	out := make([]AuditTask, 0, len(tasks))
	for len(out) < len(tasks) {
		for _, tenant := range tenants {
			if q := queues[tenant]; len(q) > 0 {
				out = append(out, q[0])
				queues[tenant] = q[1:]
			}
		}
	}
	return out
}

// SchedulerConfig carries the scheduler's knobs.
type SchedulerConfig struct {
	// Workers bounds concurrently running audits across all provers
	// (≤ 0 = runtime.NumCPU()). Workers follows the stack-wide
	// Concurrency convention: 1 dispatches strictly sequentially in fair
	// order on the calling goroutine.
	Workers int
	// ProverWindow bounds in-flight audits per prover (≤ 0 = 1). A slot
	// is held only while the prover is actually being driven — not during
	// retry backoff or TPA-side verification — so a slow prover throttles
	// its own queue without idling the rest of the fleet. Individual
	// provers can override this (and Timeout/Retries, and add a retry
	// backoff) via RegisterProverPolicy.
	ProverWindow int
	// Timeout is the per-attempt deadline (0 = wait forever). A timed-out
	// attempt frees the prover slot immediately, has its context
	// cancelled — a conforming AuditRunner then unwinds promptly instead
	// of leaking a goroutine — and any late result is discarded. The
	// runner-side AttemptTimeout remains useful as an absolute I/O
	// backstop for transports the context cannot reach.
	Timeout time.Duration
	// Retries is how many times a transport failure or timeout is retried,
	// at once (rejected transcripts are verdicts and are never retried).
	Retries int
	// OnVerdict, when set, observes every verdict as it lands — the live
	// summary hook. It is called concurrently from scheduler workers and
	// must be safe for concurrent use.
	OnVerdict func(Verdict)
	// Clock supplies verdict timing (Verdict.Elapsed) and paces a
	// ProverPolicy's retry backoff sleeps (nil = wall clock). The fleet
	// controller and the scenario testnet inject their virtual clock here
	// so Elapsed values and retry pacing replay bit-identically;
	// per-attempt Timeout deadlines still ride the wall clock (see Timeout
	// above), so fully deterministic scenarios run with Timeout = 0.
	Clock vclock.Clock
	// Tracer, when set, records every audit's span timeline (window
	// wait, pool checkout, challenge rounds, attestation, transcript
	// verification) into its bounded ring, served by the daemons at
	// /debug/audits. Nil disables tracing at the cost of one nil check
	// per audit. The tracer keeps its own clock; build it on the same
	// clock as the scheduler so timelines and Elapsed agree.
	Tracer *telemetry.AuditTracer
}

// ProverPolicy overrides the fleet-wide scheduler knobs for one prover.
// The fleet controller registers one while it escalates a prover, and
// its status API reports the policy in force. A zero field inherits the
// fleet default:
//
//   - Window  > 0 overrides SchedulerConfig.ProverWindow;
//   - Timeout > 0 overrides Timeout;
//   - Retries > 0 overrides Retries;
//   - RetryBackoff > 0 spaces the retries by a doubling Backoff from it
//     (the fleet default retries at once).
type ProverPolicy struct {
	Window       int
	Timeout      time.Duration
	Retries      int
	RetryBackoff time.Duration
}

// proverState is the per-prover dispatch state: the runner, the in-flight
// window and the prover's resolved policy knobs.
type proverState struct {
	runner  AuditRunner
	window  chan struct{}
	timeout time.Duration
	retries int
	backoff Backoff
}

// Scheduler drives many concurrent audits — request → challenge rounds →
// transcript → verification → verdict — for many tenants against many
// provers, and aggregates the verdicts in an AuditLedger. Construct with
// NewScheduler, register tenants and provers, then call RunEpoch with the
// epoch's task list. Registration, deregistration and RunEpoch are all
// safe concurrently — the fleet controller registers and deregisters
// provers while epochs are in flight — though a task whose prover is
// deregistered mid-epoch records an unregistered-prover error verdict;
// concurrent RunEpoch calls share the per-prover windows.
type Scheduler struct {
	cfg     SchedulerConfig
	mu      sync.RWMutex
	tenants map[string]*TPA
	provers map[string]*proverState
	epoch   atomic.Uint64
	ledger  *AuditLedger
}

// NewScheduler builds an empty scheduler with the given policy knobs.
func NewScheduler(cfg SchedulerConfig) *Scheduler {
	if cfg.ProverWindow <= 0 {
		cfg.ProverWindow = 1
	}
	if cfg.Clock == nil {
		cfg.Clock = vclock.Real{}
	}
	return &Scheduler{
		cfg:     cfg,
		tenants: make(map[string]*TPA),
		provers: make(map[string]*proverState),
		ledger:  &AuditLedger{entries: make(map[string]*LedgerEntry)},
	}
}

// RegisterTenant installs the auditor acting for a tenant. The TPA holds
// that tenant's POR encoder (master secret), verifier key and acceptance
// policy; several tenant names may share one *TPA when they share
// parameters.
func (s *Scheduler) RegisterTenant(name string, tpa *TPA) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tenants[name] = tpa
}

// RegisterProver installs the runner that audits a prover with the
// fleet-wide policy, giving it a fresh in-flight window of ProverWindow
// slots.
func (s *Scheduler) RegisterProver(name string, r AuditRunner) {
	s.RegisterProverPolicy(name, r, ProverPolicy{})
}

// RegisterProverPolicy installs a prover whose window/timeout/retry knobs
// are layered over the fleet defaults (see ProverPolicy). Re-registering
// a name replaces its runner, policy and window; audits already in
// flight finish under the state they started with. Safe concurrently
// with RunEpoch.
func (s *Scheduler) RegisterProverPolicy(name string, r AuditRunner, p ProverPolicy) {
	window, timeout, retries := s.cfg.ProverWindow, s.cfg.Timeout, s.cfg.Retries
	if p.Window > 0 {
		window = p.Window
	}
	if p.Timeout > 0 {
		timeout = p.Timeout
	}
	if p.Retries > 0 {
		retries = p.Retries
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.provers[name] = &proverState{
		runner:  r,
		window:  make(chan struct{}, window),
		timeout: timeout,
		retries: retries,
		backoff: Backoff{Base: p.RetryBackoff},
	}
}

// DeregisterProver removes a prover from the dispatch table: later tasks
// naming it record unregistered-prover error verdicts. Audits already
// past their lookup finish normally — a caller that must guarantee no
// verdict lands after departure (the fleet controller's graceful leave)
// drains its own in-flight work before calling this. Deregistering an
// unknown name is a no-op.
func (s *Scheduler) DeregisterProver(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.provers, name)
}

// Ledger exposes the scheduler's verdict ledger.
func (s *Scheduler) Ledger() *AuditLedger { return s.ledger }

// RunEpoch dispatches one epoch of audits and blocks until every verdict
// is in. Tasks are ordered by FairOrder, fanned out over Workers
// goroutines through parallel.Pipeline (so at most Workers + depth tasks
// are staged at once no matter how long the list is), and each task
// respects its prover's in-flight window. Verdicts are returned in
// dispatch (fair) order and are also folded into the ledger.
//
// ctx is the epoch's parent context: cancelling it makes every remaining
// attempt fail fast (recorded as error verdicts), draining the epoch
// promptly without stranding goroutines.
func (s *Scheduler) RunEpoch(ctx context.Context, tasks []AuditTask) []Verdict {
	return s.RunEpochNumbered(ctx, s.epoch.Add(1), tasks)
}

// RunEpochNumbered is RunEpoch with a caller-chosen epoch number instead
// of the scheduler's own counter. The fleet controller uses it to stamp
// every audit cycle it dispatches in one reconcile tick with the same
// epoch, keeping verdict epochs (Verdict.Epoch, which traces and
// ProverStatus.LastEpoch carry) deterministic under concurrent per-prover
// cycles. The internal counter is bumped to at least epoch so later
// RunEpoch calls never reuse a number.
func (s *Scheduler) RunEpochNumbered(ctx context.Context, epoch uint64, tasks []AuditTask) []Verdict {
	if ctx == nil {
		ctx = context.Background()
	}
	for {
		cur := s.epoch.Load()
		if cur >= epoch || s.epoch.CompareAndSwap(cur, epoch) {
			break
		}
	}
	order := FairOrder(tasks)
	verdicts := make([]Verdict, len(order))
	workers := parallel.Resolve(s.cfg.Workers)
	type job struct {
		i    int
		task AuditTask
	}
	// Neither producer nor consumer returns an error: every failure mode
	// becomes a verdict, so one broken prover cannot abort the epoch.
	parallel.Pipeline(workers, workers, func(emit func(job) error) error {
		for i, t := range order {
			if err := emit(job{i: i, task: t}); err != nil {
				return err
			}
		}
		return nil
	}, func(j job) error {
		v := s.runOne(ctx, epoch, j.task)
		verdicts[j.i] = v
		s.ledger.Record(v)
		if s.cfg.OnVerdict != nil {
			s.cfg.OnVerdict(v)
		}
		return nil
	})
	return verdicts
}

// runOne executes one task to a verdict: fresh nonce, windowed attempt
// with the prover's effective timeout, its bounded retries, then TPA
// verification.
func (s *Scheduler) runOne(ctx context.Context, epoch uint64, task AuditTask) Verdict {
	start := s.cfg.Clock.Now()
	v := Verdict{Task: task, Epoch: epoch}
	tr := s.cfg.Tracer.Begin(task.Tenant, task.Prover, task.FileID, epoch)
	ctx = telemetry.WithTrace(ctx, tr)
	finish := func() Verdict {
		v.Elapsed = s.cfg.Clock.Now().Sub(start)
		switch v.Outcome {
		case OutcomeAccepted:
			metricVerdictAccepted.Inc()
		case OutcomeRejected:
			metricVerdictRejected.Inc()
		case OutcomeTimeout:
			metricVerdictTimeout.Inc()
		case OutcomeError:
			metricVerdictError.Inc()
		}
		metricAuditSeconds.ObserveDuration(v.Elapsed)
		detail := v.Err
		if v.Outcome == OutcomeRejected {
			detail = v.Report.Reason()
		}
		tr.Finish(v.Outcome.String(), detail, v.Attempts)
		return v
	}
	s.mu.RLock()
	tpa, tenantOK := s.tenants[task.Tenant]
	prover, proverOK := s.provers[task.Prover]
	s.mu.RUnlock()
	if !tenantOK {
		v.Outcome, v.Err = OutcomeError, fmt.Sprintf("unregistered tenant %q", task.Tenant)
		return finish()
	}
	if !proverOK {
		v.Outcome, v.Err = OutcomeError, fmt.Sprintf("unregistered prover %q", task.Prover)
		return finish()
	}
	for attempt := 0; ; attempt++ {
		v.Attempts = attempt + 1
		if attempt > 0 {
			metricRetries.Inc()
		}
		// A cancelled epoch drains without driving the prover again.
		if err := ctx.Err(); err != nil {
			v.Outcome, v.Err = OutcomeError, err.Error()
			return finish()
		}
		// Fresh nonce per attempt: a transcript from a timed-out earlier
		// attempt can never be replayed against a later one.
		req, err := tpa.NewRequest(task.FileID, task.Layout, task.K)
		if err != nil {
			v.Outcome, v.Err = OutcomeError, err.Error()
			return finish()
		}
		endAttempt := tr.Span("attempt")
		st, err := s.windowedAttempt(ctx, prover, req)
		endAttempt()
		if err == nil {
			endVerify := tr.Span("verify")
			v.Report = tpa.VerifyAudit(req, task.Layout, st)
			endVerify()
			if v.Report.Accepted {
				v.Outcome = OutcomeAccepted
			} else {
				v.Outcome = OutcomeRejected
			}
			return finish()
		}
		if errors.Is(err, ErrAuditTimeout) {
			metricAttemptTimeouts.Inc()
		}
		v.Err = err.Error()
		if attempt >= prover.retries || ctx.Err() != nil {
			// A deadline error is only the *prover's* timeout when the
			// epoch itself is still live — an expired epoch ctx must not
			// blame healthy provers in the ledger.
			if ctx.Err() == nil && (errors.Is(err, ErrAuditTimeout) || errors.Is(err, context.DeadlineExceeded)) {
				v.Outcome = OutcomeTimeout
			} else {
				v.Outcome = OutcomeError
			}
			return finish()
		}
		if d := prover.backoff.Delay(attempt); d > 0 {
			// Backoff outside the prover window, but never outlive the
			// epoch: a cancelled ctx drains immediately (the next loop
			// iteration fails fast and records the verdict). On a virtual
			// clock this advances time instead of blocking.
			_ = vclock.SleepContext(s.cfg.Clock, ctx, d)
		}
	}
}

// windowedAttempt holds one of the prover's in-flight slots for the
// duration of a single attempt. On timeout the slot is released, the
// attempt's context is cancelled — so a conforming runner unwinds instead
// of leaking a goroutine against a hung prover — and any late result is
// dropped (the result channel is buffered so the send never blocks).
func (s *Scheduler) windowedAttempt(ctx context.Context, p *proverState, req AuditRequest) (SignedTranscript, error) {
	endWait := telemetry.TraceFrom(ctx).Span("window-wait")
	p.window <- struct{}{}
	endWait()
	metricInflight.Inc()
	if p.timeout <= 0 {
		defer func() {
			<-p.window
			metricInflight.Dec()
		}()
		return p.runner.RunAudit(ctx, req)
	}
	type result struct {
		st  SignedTranscript
		err error
	}
	// The slot must be released exactly once whether the attempt finishes
	// or the deadline fires first; whichever side loses the race finds the
	// release already done.
	var released atomic.Bool
	release := func() {
		if released.CompareAndSwap(false, true) {
			<-p.window
			metricInflight.Dec()
		}
	}
	attemptCtx, cancel := context.WithTimeout(ctx, p.timeout)
	defer cancel()
	done := make(chan result, 1)
	go func() {
		st, err := p.runner.RunAudit(attemptCtx, req)
		release()
		done <- result{st: st, err: err}
	}()
	select {
	case r := <-done:
		return r.st, r.err
	case <-attemptCtx.Done():
		release()
		if err := ctx.Err(); err != nil {
			return SignedTranscript{}, err // epoch aborted, not a prover timeout
		}
		return SignedTranscript{}, ErrAuditTimeout
	}
}
