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
// plus read-back, sized to the whole encoded file before the encode
// starts) and a streaming extract reads from any io.ReaderAt. The engine
// reaches the encoded file one of two ways:
//
//   - In memory: a MemTarget's slice, checked against the layout's length
//     before any work, or the segment-aligned views a target or source
//     lends through an Images method for the length of the call — a
//     persistent store (internal/store's Writer and Store, on unix) lends
//     its shard mappings, after the engine has checked that the store's
//     Layout is the call's. Blocks are placed and gathered through the
//     shared slot map (blockfile.SlotGeom), one 16-byte load/store each,
//     under one lock per chunk group and a bitmap that refuses a slot
//     placed twice; tags are stamped and verified in place. Every worker
//     touches the views through the lender's guard, which the store uses
//     to report a memory fault in a shard cut short as ErrCorrupt.
//   - Through the interface: one WriteAt/ReadAt per block, and on the
//     write side a tag pass that reads the placed segments back in
//     sequential slabs — a plain file, or a store where the platform
//     has no mappings.
//
// Output is byte-identical on both paths. An extraction writes each
// chunk group's recovered plaintext with one WriteAt, not one write per
// chunk.
package por
