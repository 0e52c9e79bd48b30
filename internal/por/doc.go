// Package por implements the proof-of-storage component of GeoProof: the
// MAC-based variant of the Juels-Kaliski proof of retrievability [19]
// selected by the paper (§IV, §V-A).
//
// Setup pipeline (§V-A):
//  1. split the file F into 128-bit blocks,
//  2. apply the (255,223,32) Reed-Solomon code per 255-block chunk → F′,
//  3. encrypt with a symmetric cipher → F″,
//  4. reorder blocks with a pseudorandom permutation → F‴,
//  5. group v=5 blocks per segment and embed a truncated MAC per segment
//     → F̃, which is what the cloud stores.
//
// The verifier challenges random segment indices; the prover returns
// segment‖tag; anyone holding the MAC key verifies
// τ_i = MAC_K′(S_i, i, fid). Recovery (Extract) inverts the pipeline and
// uses the MAC verdicts as erasure hints for the Reed-Solomon decoder; a
// hinted chunk costs one small matrix inverse plus a table pass per
// damaged stripe, not a full error search per stripe, and allocates
// nothing.
//
// The Encoder is the data owner's handle on all of it: Encode/Extract for
// the in-memory round trip, EncodeStream/ExtractStream for the bounded-
// memory chunk-pipelined engine (both produce byte-identical output), and
// VerifySegments for the TPA-side MAC checks. The challenge indices, the
// timed rounds and the verdict belong to core (core.DeriveIndices,
// TPA.VerifyAudit), which calls VerifySegments for the MAC step.
//
// # Concurrency
//
// Every stage of the pipeline is embarrassingly parallel: chunks are
// error-corrected independently, the CTR keystream can be applied per
// shard, the permutation scatters blocks to disjoint destinations, and
// segments are tagged (and verified) independently. The Encoder therefore
// carries a Concurrency knob, set with WithConcurrency, following the
// stack-wide contract defined in package parallel: 0 (the default) fans
// each stage out over runtime.NumCPU() workers, 1 runs the exact
// sequential pipeline on the calling goroutine, and any other value caps
// the worker count. Output is byte-identical at every setting — the knob
// trades CPU for wall clock, never determinism.
//
// # Stream targets and sources
//
// A streaming encode writes into any StreamTarget (random-access writes
// plus read-back) and a streaming extract reads from any io.ReaderAt:
// *os.File, MemTarget, or a type implementing one of the optional seams
// through which the engine moves the permuted blocks of a whole chunk
// group in one call instead of one 16-byte WriteAt/ReadAt per block:
//
//   - Range (MemTarget): direct access to the backing memory, both
//     directions.
//   - BlockPlacer, write side: receives the scatter as block batches with
//     their permuted block indices (slots), which the engine has already
//     computed — no byte offset is derived for it. The persistent sharded
//     store (internal/store.Writer) implements it with a write-combining
//     staged placer, which is how file-backed encodes reach in-memory
//     throughput.
//   - FlushPlacements(finish), write side, beside BlockPlacer: a placer
//     that builds the encoded file in memory one segment-aligned image at
//     a time hands the engine each complete image before writing it out,
//     and the engine stamps the image's segment tags in place. Such a
//     target gets no tag pass: each encoded byte is written once and none
//     is read back. The store's Writer does this per shard.
//   - BlockGatherer, read side, the mirror of BlockPlacer: fills a group's
//     buffer from the same permuted block indices. internal/store.Store
//     implements it (on unix) by copying out of its mapped shards, which
//     does the same for store-backed extraction.
//
// A source or target with none of them — a flat .geo file — takes the
// per-block loop, and on the write side a tag pass that reads the placed
// segments back in sequential slabs; output is byte-identical on every
// path. On the output side an extraction gathers each chunk group's
// recovered plaintext in place and writes it with one WriteAt (one copy
// into a MemTarget), not one write per chunk.
package por
