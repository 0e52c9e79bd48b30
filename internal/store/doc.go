// Package store is the prover's persistent backend: a sharded on-disk
// block store holding one encoded (error-corrected, encrypted, permuted,
// tagged) GeoProof file, durable across prover restarts.
//
// The write path stores each block straight into its shard's page cache.
// The POR setup pipeline emits permuted block placements whose
// destinations are a pseudorandom permutation of the whole file — the
// worst possible write pattern, one 16-byte random write per block if
// each went through a system call. On unix Create instead fills each
// shard's page cache with 1 MiB sequential zero writes (from a read-only
// anonymous mapping, not the Go heap) and maps the shard writable and
// shared; the fill is what makes the scattered stores cheap,
// about one write fault per large folio where an unfilled file faults in
// page by page. The Writer lends the mappings to the encode once, through
// Images, under its lock: the POR engine, having checked that the
// Writer's Layout is its own, stores every block through the mapping at
// an offset given by 32-bit arithmetic (blockfile.SlotGeom) — one
// 16-byte store for the paper's blocks — keeping the bitmap and count
// that pin every slot filled exactly once, and stamps the segment tags in
// place. Any failure inside the loan latches the Writer failed. Commit
// then takes each shard's CRC-32C over its mapping and unmaps it. Every
// encoded byte reaches the page cache once, with no system call per
// block and nothing read back.
//
// The trade-off is the working set. The encode writes the whole encoded
// store at random through its mappings, so the process's resident set
// grows to the encoded size — page cache, not Go heap, which holds only
// the pipeline's buffers and the bitmap (one bit per block) — and the
// encode needs page cache for 1× the encoded size. An encode larger than
// the free page cache would page at random, where a sequential staging
// design would not; no command default comes near that size. Off unix
// the Writer lends no mappings: the encode writes each block through
// WriteAt, tags in a read-back pass, and Commit checksums every shard
// from its file.
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
// publishes an uncommitted manifest (bumped epoch), Commit records each
// shard's CRC-32C and renames the completed manifest into place. A crash
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
//   - Extraction borrows the shards: recovery has to verify every
//     segment tag and collect every chunk group's blocks back from their
//     permuted positions, ~16 k scattered 16-byte reads per 256 KiB
//     group. On unix the Store lends the POR engine read-only, shared
//     mappings of its shards through Images (made on first use, released
//     by Close) — the page cache itself, so no system call per block,
//     nothing added to the Go heap, and a constant cost per block at every
//     file size. The engine verifies the tags in place and gathers the
//     blocks by the writer's 32-bit slot arithmetic: the paper's 16-byte
//     blocks go in two passes over strips of 256 slots, the first
//     resolving every slot of the strip to a pointer into its shard's
//     mapping, the second moving the blocks, each one load/store pair, so
//     block misses overlap: 27–31 ns per block where the one-pass loop
//     took 39–53. Elsewhere the extractor falls back to one ReadAt per
//     block and a verify pass of preads.
//   - Verify checksums each shard's mapping against the committed
//     CRC-32C on unix, so the bytes an extraction reads next are already
//     in the page cache and no buffer is allocated; elsewhere it preads
//     each shard through one buffer.
//
// Audits stay on pread on purpose: a challenged segment is one small
// read, the pread is the disk look-up the paper's Δt_max budget times,
// and an I/O error comes back from the system call as an error. A mapped
// read reports the same failure as a memory fault, so every loan carries
// the contract that makes that safe. The engine checks the lender's
// layout before it touches a view, which keeps every slot its
// permutation yields inside the views (shards are segment-aligned). A
// Store's loan holds every shard's read lock for the whole call — a
// permuted chunk group touches them all — which keeps the exclusion
// WriteAt (fault injection, per-shard write lock) and Close (every write
// lock, then unmap) had under pread, while a write that finishes between
// two loans is seen by the second; the gather's resolved block pointers
// live in its stack frame inside the loan, so none can outlive the
// munmap, and the collector ignores pointers outside its heap. A Writer's
// loan holds its lock and checks every shard's size first. And a shard
// truncated underneath its mapping by a hostile or failing filesystem is
// returned as ErrCorrupt (runtime/debug.SetPanicOnFault scoped to the
// work, recovered, previous setting restored) instead of a SIGBUS that
// kills the prover: the loan runs fn under that guard and hands it to fn,
// and the engine runs every worker goroutine's work on the views through
// it — the writer's stores and tag stamping, the extractor's verify pass
// and gather — as Verify and Commit's checksums run under it. After
// Close a Store's loan gets os.ErrClosed. Manifest validation bounds the
// shard size (2 GiB, as Create does), which is what lets the 32-bit
// arithmetic trust a slot in range.
package store
