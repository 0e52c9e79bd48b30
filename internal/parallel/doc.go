// Package parallel is the shared fan-out helper behind GeoProof's
// concurrency knob: a tiny errgroup-style worker pool with two users, the
// POR pipeline (setup, extraction and the TPA-side segment checks) and
// the audit scheduler.
//
// # Concurrency semantics (canonical definition)
//
// Every concurrency knob in this repository — por.Encoder.WithConcurrency,
// core.SchedulerConfig.Workers, the -j flag on the CLIs — resolves through this package and therefore
// shares one contract:
//
//   - 0 (or any value ≤ 0) resolves to runtime.NumCPU() workers;
//   - 1 executes the loop inline on the calling goroutine — byte-for-byte
//     the sequential behaviour, with zero goroutine overhead;
//   - n > 1 caps the worker count at n.
//
// Output never depends on the setting: the knob trades CPU for wall
// clock, not determinism. "Concurrency 1 = exact sequential semantics" is
// a checkable guarantee (the equivalence property tests exercise it)
// rather than a convention, which is what makes the parallel paths safe
// to grow.
//
// Error selection is deterministic too: every entry point reports the
// error of the lowest/earliest index that failed, matching what a
// sequential loop that stops at the first error would report.
//
// The entry points cover the three shapes of fan-out in the stack: For
// (dynamic work stealing over an index range), ForRange (contiguous
// shards for bulk byte-slice work) and Pipeline (bounded
// producer/consumer with backpressure — the memory-bounding primitive
// behind the streaming POR engine and the audit scheduler).
package parallel
