// Package store is the prover's persistent backend: a sharded on-disk
// block store holding one encoded (error-corrected, encrypted, permuted,
// tagged) GeoProof file, durable across prover restarts.
//
// The write path stores each block straight into its shard's page cache.
// The POR setup pipeline emits permuted block placements whose
// destinations are a pseudorandom permutation of the whole file — the
// worst possible write pattern, one 16-byte random write per block if
// each went through a system call. On unix the placer instead has Create
// fill each shard's page cache with 1 MiB sequential zero writes (from a
// read-only anonymous mapping, not the Go heap) and map the shard
// writable and shared; the fill is what makes the scattered stores cheap,
// about one write fault per large folio where an unfilled file faults in
// page by page. PlaceBlocks checks every slot of a chunk group's batch
// against the layout, then, under the Writer's one lock, tests and sets
// each slot's bit in a placement bitmap (a slot placed twice is
// ErrCorrupt and latches the writer failed) and stores the block through
// the mapping at an offset given by 32-bit arithmetic — one 16-byte store
// for the paper's blocks. FlushPlacements checks the global count, which
// with the bitmap pins every slot filled exactly once; then, shard by
// shard, the encoder stamps the segment tags into the mapping in place,
// the CRC-32C is taken over it, and the shard is unmapped. Every encoded
// byte reaches the page cache once, with no system call per block and
// nothing read back.
//
// The trade-off is the working set. The encode writes the whole encoded
// store at random through its mappings, so the process's resident set
// grows to the encoded size — page cache, not Go heap, which holds only
// the pipeline's buffers and the bitmap (one bit per block) — and the
// encode needs page cache for 1× the encoded size. An encode larger than
// the free page cache would page at random, where a sequential staging
// design would not; no command default comes near that size. Off unix
// the Writer has no placer: the encode writes each block through WriteAt,
// tags in a read-back pass, and Commit checksums every shard.
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
// shard's CRC-32C as it seals it (Commit re-reads only a shard patched
// through Writer.WriteAt since), and Commit renames the completed
// manifest into place. A crash
// anywhere mid-encode leaves a directory Open reports as ErrIncomplete;
// a committed store reopens without re-running Setup, which is how
// cmd/geoproofd -store serves audits across restarts.
//
// The read path (Store) opens every shard and serves two kinds of reader
// under per-shard read locks, so any number proceed concurrently:
//
//   - Audits and sequential scans use positioned reads (pread): ReadAt,
//     and ReadSegment. Shards are segment-aligned
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
//     and offset are the placer's 32-bit arithmetic. The paper's 16-byte
//     blocks go in two passes over strips of 256 slots: the first
//     resolves every slot of the strip to a pointer into its shard's
//     mapping, the second moves the blocks, each one load/store pair
//     rather than a memmove call. The moves wait on nothing but their
//     pointers, so block misses overlap: 27–31 ns per block where the
//     one-pass loop, each load behind its divides and its shard's slice
//     header, took 39–53 (a second pass from packed shard/offset words
//     took 39–47). The seam exists on unix; elsewhere the extractor falls
//     back to one ReadAt per block.
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
// the second — the gather's resolved block pointers live in its stack
// frame inside that call, so none can outlive the munmap, and the
// collector ignores pointers outside its heap; and a shard truncated underneath its mapping by a hostile
// or failing filesystem is returned as ErrCorrupt
// (runtime/debug.SetPanicOnFault scoped to the read, recovered, previous
// setting restored) instead of a SIGBUS that kills the prover. After
// Close both get os.ErrClosed. Manifest validation bounds the shard size
// (2 GiB, as Create does), which is what lets the 32-bit arithmetic
// trust a slot in range. The writer's stores, and the tag stamping and
// checksum on the flushing goroutine, run under the same containment; the
// flush also refuses a shard already cut short before the encoder's tag
// workers, whose goroutines nothing guards, touch it.
package store
