package core

// This file registers every core-layer metric family into the
// process-wide telemetry registry. Families live in package variables
// and hot-path label children are resolved once here, so the audit
// path's cost per event is a single atomic add (see the telemetry
// package's hot-path cost contract). Nothing in this file touches the
// clock: durations are handed in by callers that already hold one from
// their injected vclock.Clock.

import "repro/internal/telemetry"

var (
	// Scheduler: verdict classes, latency, retries, timeouts and window
	// occupancy.
	metricVerdicts = telemetry.Default.CounterVec(
		"geoproof_sched_verdicts_total",
		"Scheduled audit verdicts by outcome class.", "outcome")
	metricVerdictAccepted = metricVerdicts.With(OutcomeAccepted.String())
	metricVerdictRejected = metricVerdicts.With(OutcomeRejected.String())
	metricVerdictTimeout  = metricVerdicts.With(OutcomeTimeout.String())
	metricVerdictError    = metricVerdicts.With(OutcomeError.String())
	metricAuditSeconds    = telemetry.Default.DurationHistogram(
		"geoproof_sched_audit_seconds",
		"End-to-end scheduled audit latency, dispatch to verdict.")
	metricRetries = telemetry.Default.Counter(
		"geoproof_sched_retries_total",
		"Audit attempts re-dispatched after a transport failure or timeout.")
	metricAttemptTimeouts = telemetry.Default.Counter(
		"geoproof_sched_attempt_timeouts_total",
		"Audit attempts abandoned at the per-attempt deadline.")
	metricInflight = telemetry.Default.Gauge(
		"geoproof_sched_inflight_audits",
		"Audits currently holding a prover in-flight window slot.")

	// ProverPool: dial churn and reuse. Hit rate = 1 - dials/gets.
	metricPoolGets = telemetry.Default.Counter(
		"geoproof_pool_gets_total",
		"Prover connections borrowed from the pool.")
	metricPoolDials = telemetry.Default.Counter(
		"geoproof_pool_dials_total",
		"Prover connections dialed by the pool (cold misses and redials).")
	metricPoolEvictions = telemetry.Default.Counter(
		"geoproof_pool_evictions_total",
		"Addresses evicted from the pool (departed or quarantined provers).")

	// Mux transport, verifier side.
	metricMuxFramesWritten = telemetry.Default.Counter(
		"geoproof_mux_frames_written_total",
		"Frames written on multiplexed prover connections.")
	metricMuxFramesRead = telemetry.Default.Counter(
		"geoproof_mux_frames_read_total",
		"Frames read on multiplexed prover connections.")

	// Prover server side (geoproofd).
	metricProverConns = telemetry.Default.Counter(
		"geoproof_prover_conns_total",
		"Verifier connections accepted past the mux handshake.")
	metricProverRequests = telemetry.Default.CounterVec(
		"geoproof_prover_requests_total",
		"Requests served by the prover, by type.", "type")
	metricProverPings       = metricProverRequests.With("ping")
	metricProverSegments    = metricProverRequests.With("segment")
	metricProverReplyWrites = telemetry.Default.Counter(
		"geoproof_prover_reply_writes_total",
		"Socket writes carrying prover replies; replies ready together share one.")
	metricProverLookupLate = telemetry.Default.DurationHistogram(
		"geoproof_prover_lookup_late_seconds",
		"How far past its modelled disk look-up each simulated look-up sleep returned.")

	// Fleet controller health machine.
	metricFleetTransitions = telemetry.Default.CounterVec(
		"geoproof_fleet_transitions_total",
		"Prover health-state transitions, labeled by the state entered.", "to")
	metricFleetProbeSeconds = telemetry.Default.DurationHistogram(
		"geoproof_fleet_probe_rtt_seconds",
		"Liveness-probe round-trip time for successful probes.")
	metricFleetProbeFailures = telemetry.Default.Counter(
		"geoproof_fleet_probe_failures_total",
		"Liveness probes that returned an error.")
	metricFleetQuarantineSeconds = telemetry.Default.DurationHistogram(
		"geoproof_fleet_quarantine_seconds",
		"Time provers spent quarantined, observed on leaving the state.")
)
