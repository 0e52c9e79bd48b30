package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// spanNames collects the names of a trace's spans in recorded order.
func spanNames(tr telemetry.AuditTrace) []string {
	names := make([]string, len(tr.Spans))
	for i, s := range tr.Spans {
		names[i] = s.Name
	}
	return names
}

func countSpans(tr telemetry.AuditTrace, name string) int {
	n := 0
	for _, s := range tr.Spans {
		if s.Name == name {
			n++
		}
	}
	return n
}

// TestSchedulerAuditTracing runs a real audit (flaky transport, retry,
// then acceptance) through a traced scheduler and checks the recorded
// timeline: identity fields, final outcome, one "attempt"/"window-wait"
// pair per attempt, and the verifier's "rounds"/"attest" spans plus the
// TPA's "verify" span from the successful attempt.
func TestSchedulerAuditTracing(t *testing.T) {
	f := newSchedFixture(t)
	tracer := telemetry.NewAuditTracer(8, nil)
	sched := NewScheduler(SchedulerConfig{
		Workers:      1,
		ProverWindow: 1,
		Retries:      2,
		RetryBackoff: time.Millisecond,
		Tracer:       tracer,
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

	traces := tracer.Snapshot()
	if len(traces) != 1 || tracer.Total() != 1 {
		t.Fatalf("tracer holds %d traces (total %d), want 1", len(traces), tracer.Total())
	}
	tr := traces[0]
	if tr.Tenant != "t1" || tr.Prover != "flaky" || tr.FileID != f.ef.FileID || tr.Epoch != 1 {
		t.Errorf("trace identity = %q/%q/%q epoch %d, want t1/flaky/%q epoch 1",
			tr.Tenant, tr.Prover, tr.FileID, tr.Epoch, f.ef.FileID)
	}
	if tr.Outcome != "accepted" || tr.Attempts != 2 {
		t.Errorf("trace outcome = %q attempts %d, want accepted after 2 attempts", tr.Outcome, tr.Attempts)
	}
	if tr.ElapsedNs <= 0 {
		t.Errorf("trace elapsed = %dns, want > 0", tr.ElapsedNs)
	}
	// Two attempts each wait for the window; only the second attempt
	// reaches the prover's rounds, attestation and TPA verification.
	want := map[string]int{"attempt": 2, "window-wait": 2, "rounds": 1, "attest": 1, "verify": 1}
	for name, n := range want {
		if got := countSpans(tr, name); got != n {
			t.Errorf("span %q recorded %d times, want %d (timeline: %v)", name, got, n, spanNames(tr))
		}
	}
	for _, s := range tr.Spans {
		if s.EndNs < s.StartNs || s.StartNs < 0 {
			t.Errorf("span %q has inverted bounds [%d, %d]", s.Name, s.StartNs, s.EndNs)
		}
		if s.EndNs > tr.ElapsedNs {
			t.Errorf("span %q ends at %dns, after the audit's %dns", s.Name, s.EndNs, tr.ElapsedNs)
		}
	}
}

// TestSchedulerNilTracer pins the tracing seam's default: a scheduler
// without a Tracer runs audits untraced and unharmed.
func TestSchedulerNilTracer(t *testing.T) {
	f := newSchedFixture(t)
	sched := NewScheduler(SchedulerConfig{Workers: 1, ProverWindow: 1})
	sched.RegisterTenant("t1", f.tpa)
	sched.RegisterProver("mem", &localRunner{Verifier: f.verifier, Conn: &memConn{store: f.store}})
	verdicts := sched.RunEpoch(context.Background(), []AuditTask{f.task("t1", "mem", 2)})
	if v := verdicts[0]; v.Outcome != OutcomeAccepted {
		t.Fatalf("verdict = %+v, want accepted", v)
	}
}
