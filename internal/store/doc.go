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
//   - takes each chunk group's blocks with their block slots (permuted
//     block indices, as the encoder computed them), checks every slot
//     against the layout, and appends one record per block — its 4-byte
//     shard-relative slot, then the block — to its shard's bounded
//     in-memory staging window (Options.WindowBytes across all shards),
//     all under the Writer's one lock;
//   - spills each full window to the shard's staging log as it stands —
//     every record carries its slot, so arrival order will do — as one
//     large sequential append;
//   - at FlushPlacements replays each log into a shard-sized buffer. A
//     record's slot must lie inside its shard (by construction it names a
//     block, never a tag byte) and must not repeat (a per-shard bitmap);
//     with the global count that pins every slot filled exactly once. The
//     slot's byte offset is 32-bit arithmetic. The encoder then stamps the
//     segment tags into the complete image, the image's CRC-32C is taken,
//     and the finished shard is materialised with a single sequential
//     write.
//
// Every byte of encoded payload therefore moves through large sequential
// I/O only — O(total/window-size) syscalls instead of O(blocks) — and
// reaches its shard file once, tags included: nothing is read back, for a
// tag pass or for the checksums. Resident memory stays O(window + one
// shard), independent of file size.
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
// publishes an uncommitted manifest (bumped epoch), the flush records each
// shard's CRC-32C as it materialises it (Commit re-reads only a shard
// patched through Writer.WriteAt since), and Commit renames the completed
// manifest into place. A crash
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
//     always one pread inside one shard. A shard that ends short of its
//     manifest length (cut after Open) reads as ErrCorrupt, never as
//     zeros; io.EOF means a read ran past the payload's end.
//   - Extraction gathers: recovery has to collect every chunk group's
//     blocks back from their permuted positions, ~16 k scattered 16-byte
//     reads per 256 KiB group. Through the por.BlockGatherer seam the
//     extractor hands GatherBlocks a whole group's block slots in one
//     call — the permuted block indices, as PlaceBlocks takes them — and
//     the store copies the blocks out of read-only, shared mappings of
//     its shards (made on first use, released by Close) — the page cache
//     itself, so no system call per block, nothing added to the Go heap,
//     and a constant cost per block at every file size. A slot's shard
//     and offset are the placer's 32-bit arithmetic, and a 16-byte block
//     moves as one load/store pair rather than a memmove call. The seam
//     exists on unix; elsewhere the extractor falls back to one ReadAt
//     per block.
//   - Verify checksums each shard's mapping against the committed
//     CRC-32C on unix, so the bytes an extraction reads next are already
//     in the page cache and no buffer is allocated; elsewhere it preads
//     each shard through one buffer.
//
// Audits stay on pread on purpose: a challenged segment is one small
// read, the pread is the disk look-up the paper's Δt_max budget times,
// and an I/O error comes back from the system call as an error. A mapped
// read reports the same failure as a memory fault, so GatherBlocks and
// Verify carry the contract that makes that safe: a gather's batch is
// validated (the layout's block size, the buffer sized to match, every
// slot below TotalBlocks — shards being segment-aligned, that puts every
// block inside its shard's mapping) before memory is touched; every
// shard's read lock is held for the whole call (a permuted chunk group
// touches them all), which keeps the exclusion WriteAt (fault injection,
// per-shard write lock) and Close (every write lock, then unmap) had
// under pread, while a write that finishes between two calls is seen by
// the second; and a shard truncated underneath its mapping by a hostile
// or failing filesystem is returned as ErrCorrupt
// (runtime/debug.SetPanicOnFault scoped to the read, recovered, previous
// setting restored) instead of a SIGBUS that kills the prover. After
// Close both get os.ErrClosed. Manifest validation bounds the shard size
// (2 GiB, as Create does), which is what lets the 32-bit arithmetic
// trust a slot in range.
package store
