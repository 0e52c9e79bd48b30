package crypt

import "repro/internal/telemetry"

// BatchSigner observability: why batches flush, how full they are when
// they do, and what the amortized signing operation costs. Children are
// resolved once so the flush path pays one atomic add per event.
var (
	metricBatchFlushes = telemetry.Default.CounterVec(
		"geoproof_batchsign_flushes_total",
		"Batch-signer flushes by cause: size (MaxBatch reached), latency (MaxLatency timer), close.",
		"cause")
	metricBatchFlushSize    = metricBatchFlushes.With("size")
	metricBatchFlushLatency = metricBatchFlushes.With("latency")
	metricBatchFlushClose   = metricBatchFlushes.With("close")
	metricBatchSize         = telemetry.Default.Histogram(
		"geoproof_batchsign_batch_size",
		"Transcript digests per signed batch.")
	metricBatchSignSeconds = telemetry.Default.DurationHistogram(
		"geoproof_batchsign_sign_seconds",
		"Latency of the root signature per flushed batch.")
)
