// Package telemetry is the stack's zero-dependency observability core:
// atomic counters, gauges and power-of-two-bucketed histograms grouped
// into a process-wide Registry with Prometheus text exposition, plus a
// per-audit span tracer held in a bounded ring buffer and served as
// JSON. Every instrumented layer (scheduler, transport, pool, batch
// signer, fleet controller, store) registers its families as package
// variables, so a binary's /metrics endpoint exposes exactly the
// subsystems it links.
//
// # Hot-path cost contract
//
// Instrumentation sits on the audit fast path (tens of thousands of
// audits per second over pooled mux connections), so the primitives
// make the following guarantees, relied on by core's
// TestMuxRoundAllocationBudget (≤ 3 allocations per mux round, both ends
// in one process):
//
//   - Counter.Inc/Add, Gauge.Inc/Dec/Set and Histogram.Observe are a
//     single atomic RMW each (two for Observe's count+sum, plus one for
//     the bucket) and never allocate.
//   - Labeled children are resolved through a map under a mutex: call
//     With(...) once at registration or setup time and keep the returned
//     child; never call With inside a per-round or per-frame loop.
//   - Histograms bucket by the value's power-of-two ceiling
//     (bits.Len64), so Observe is branch-light and allocation-free;
//     bucket boundaries are exact powers of two.
//   - When no AuditTracer is configured, the tracing seam costs one nil
//     check (scheduler) or one context Value lookup (runner layers) per
//     audit — no allocations. With tracing on, cost is one Trace
//     allocation plus a few span closures per audit, never per round.
//   - Exposition (WritePrometheus, Snapshot) takes the registry locks
//     and allocates freely; it is meant for scrape frequency, not the
//     audit path. Scrapes never block writers for longer than a map
//     read per family.
//
// Time never comes from the wall clock inside this package: the tracer
// reads the vclock.Clock it was built with, so deterministic scenario
// runs (internal/testnet) record virtual timestamps and stay
// byte-identical across replays.
package telemetry
