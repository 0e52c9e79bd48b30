// Package store is the prover's persistent backend: a sharded on-disk
// block store holding one encoded (error-corrected, encrypted, permuted,
// tagged) GeoProof file, durable across prover restarts.
//
// The write path is a write-combining staged placer. The POR setup
// pipeline emits permuted block placements whose destinations are a
// pseudorandom permutation of the whole file — the worst possible write
// pattern, one 16-byte random write per block if applied naively (the
// ~2× stream-encode overhead PR 3 measured). The placer instead:
//
//   - buckets placements per shard into a bounded in-memory staging
//     window (Options.WindowBytes across all shards),
//   - spills each full window to the shard's staging log as it stands —
//     every record carries its destination, so arrival order will do —
//     as one large sequential append,
//   - at FlushPlacements replays each log into a shard-sized buffer,
//     checking that every block slot is filled exactly once, lets the
//     encoder stamp the segment tags into the complete image, and
//     materialises the finished shard with a single sequential write.
//
// Every byte of encoded payload therefore moves through large sequential
// I/O only — O(total/window-size) syscalls instead of O(blocks) — and
// reaches its shard file once, tags included: nothing is read back for a
// tag pass. Resident memory stays O(window + one shard), independent of
// file size.
//
// The manifest carries a format version (2) that covers both its own
// schema and the encoding of the shard bytes (blockfile.EncodingVersion:
// which cipher, permutation and tag construction the POR pipeline used).
// Open refuses any other version with ErrFormatVersion — the shards of a
// version 1 store are intact but permuted and tagged differently, so they
// would read as wholesale corruption — and there is no converter: re-run
// geoprep, which supersedes the old directory in place.
//
// Durability is an epoch'd manifest committed by atomic rename: Create
// publishes an uncommitted manifest (bumped epoch), Commit checksums the
// shards (CRC-32C) and renames the completed manifest into place. A crash
// anywhere mid-encode leaves a directory Open reports as ErrIncomplete;
// a committed store reopens without re-running Setup, which is how
// cmd/geoproofd -store serves audits across restarts.
//
// The read path (Store) opens every shard and serves two kinds of reader
// under per-shard read locks, so any number proceed concurrently:
//
//   - Audits and sequential scans use positioned reads (pread): ReadAt,
//     ReadSegment and the batch ReadSegments. Shards are segment-aligned
//     (blockfile.Layout.AlignToSegments), so a challenged segment is
//     always one pread inside one shard.
//   - Extraction gathers: recovery has to collect every chunk group's
//     blocks back from their permuted positions, ~16 k scattered 16-byte
//     reads per 256 KiB group. Through the por.BlockGatherer seam the
//     extractor hands GatherBlocks a whole group's offsets in one call,
//     and the store copies the blocks out of read-only, shared mappings
//     of its shards (made on the first gather, released by Close) — the
//     page cache itself, so no system call per block, nothing added to
//     the Go heap, and a constant cost per block at every file size.
//     The seam exists on unix; elsewhere the extractor falls back to one
//     ReadAt per block.
//
// Audits stay on pread on purpose: a challenged segment is one small
// read, the pread is the disk look-up the paper's Δt_max budget times,
// and an I/O error comes back from the system call as an error. A mapped
// read reports the same failure as a memory fault, so GatherBlocks
// carries the contract that makes that safe: every offset is validated
// (inside the payload, inside one shard, buffer sized to match) before
// memory is touched; the read locks of the shards a batch touches are
// held for the whole call, which keeps the exclusion WriteAt (fault
// injection, per-shard write lock) and Close (every write lock, then
// unmap) had under pread, while a write that finishes between two
// gathers is seen by the second; and a shard truncated underneath its
// mapping by a hostile or failing filesystem is returned as ErrCorrupt
// (runtime/debug.SetPanicOnFault scoped to the copy, recovered, previous
// setting restored) instead of a SIGBUS that kills the prover. A gather
// after Close gets os.ErrClosed.
package store
