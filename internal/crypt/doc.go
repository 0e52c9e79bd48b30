// Package crypt bundles the cryptographic primitives GeoProof builds on:
// key derivation, AES-CTR bulk encryption, truncated AES-CMAC segment tags
// and Ed25519 transcript signatures.
//
// The paper's setup phase (§V-A) encrypts the error-corrected file with a
// symmetric cipher, permutes it, then MACs v-block segments with short
// (e.g. 20-bit) tags; the verifier device signs audit transcripts with a
// private key (§V-B).
//
// The bulk paths are built for the concurrent encoder. EncryptCTRAt seeks
// the keystream to an arbitrary (even unaligned) byte offset, so shards of
// one stream are encrypted independently and bit-identically to one
// sequential pass. Tagger is AES-CMAC (RFC 4493) over a header block
// binding segment index and file ID followed by the segment — six AES
// blocks for the paper's five-block segment — truncated to the tag width
// (at most MaxTagBits = 128); every form but Tag is allocation-free.
//
// # The VAES kernels
//
// Two amd64 assembly kernels carry the bulk AES, each handling two blocks
// per YMM register and eight registers at a time, sixteen blocks per
// VAESENC sweep:
//
//   - tagSlab16, the slab forms' segment tag kernel. TagSlab and
//     VerifySlab, which the setup pipeline and the extractor run over
//     every segment, hand a run's whole sixteen-segment groups to one
//     call: it builds each header block in registers, absorbs the body
//     blocks, the K1- or K2-masked final block (one 16-byte load
//     shuffled into place), encrypts, truncates, and stores each tag in
//     its slot or compares it with the slot in constant time. The run's
//     last run mod 16 segments go four at a time through cipher.Block.
//   - ctr256, the AES-256-CTR kernel. EncryptCTRAt runs it for 32-byte
//     keys — every key DeriveKey makes — over the whole buffer in one
//     call; Go splits a call only where the counter's low 64 bits wrap
//     and keystream for a ragged head or tail.
//
// Both run where CPUID reports AES-NI, AVX, AVX2 and VAES and XCR0 shows
// the OS saving YMM state (vaesMissingFrom), read once at start-up. Other
// hosts and architectures take the portable four-lane tag path and the
// standard library's AES-CTR stream, as do 16- and 24-byte CTR keys. An
// AES-NI host without VAES therefore runs the slab forms at the portable
// path's speed, ≈ 3× slower than the AES-NI eight-lane kernel this one
// replaced; on a 2-vCPU Sapphire Rapids VM with both kernels forced off,
// the bench's por-setup and por-retrieve lost ≈ 15 % against that
// kernel. Tag, AppendTag and VerifyTag, the TPA's audit-path checks,
// always take the one-lane cipher.Block path. The tag format and the
// ciphertext are the same on every path.
//
// Every other primitive here is the Go standard library's. The kernels
// are local code, and their trust argument is this: the AES rounds are
// the CPU's VAESENC/VAESENCLAST instructions, and the AES-128 and
// AES-256 key schedules are expanded by AESKEYGENASSIST, so no table is
// indexed by a secret byte and the kernels run in constant time. They are
// tested against crypto/aes: the key schedules against FIPS-197
// Appendices A.1 and A.3, whole tags against RFC 4493 and a straight-line
// reference CMAC on crypto/aes for every payload length 0..97 and tag
// size, the keystream against a hand-seeked cipher.NewCTR at every offset
// mod 16 and across counter wraps — on both paths, under the fuzzer as
// well.
//
// # Transcript signatures
//
// The paper names no scheme for Sign_SK(R). The device signs the SHA-256
// digest of each transcript with Ed25519 (RFC 8032, crypto/ed25519); this
// package is the only one that knows the scheme. A verification key is a
// PublicKey, 32 bytes, which geoverifierd prints and geoverify -devices
// reads as 64 hex digits (String, ParsePublicKey). Every key passes
// PublicKey.Check before use, in ParsePublicKey, Verify and core.NewTPA,
// so a key of another length, such as the 33-byte compressed P-256 key
// devices printed before, is an ErrBadPublicKey, never the panic
// ed25519.Verify raises on it. Signing is deterministic: one key and one
// transcript give one signature. On a 2-vCPU Xeon VM at one P
// (BenchmarkSign, BenchmarkVerify; ten alternating rounds) a signature
// took 28–46 µs and a check 58–99 µs, against 42–65 and 100–133 µs for
// the P-256 ECDSA it replaced.
//
// # Batch signing, in process only
//
// Every transcript that leaves a device carries its own signature:
// geoverifierd signs each one, and core's codec has no room for any
// other form. BatchSigner remains only because bench's audit-fleet-disk
// drives it in process; it goes when that workload signs per
// transcript. Concurrent audits hand it their transcript digests, it
// makes them the leaves of one Merkle tree (flushing on a batch-size or
// a latency bound) and signs only the root, under a domain prefix
// (SignBatchRoot/VerifyBatchRoot) so a signed root never doubles as a
// signed transcript or the reverse. Each audit gets back a
// RootAttestation: the root, its signature and the leaf's inclusion
// proof. Forging one for bytes the device never saw still takes an
// Ed25519 forgery or a SHA-256 collision. At Ed25519's cost the batch
// saves little: at audit-fleet-disk's ≈ 145 audits/s, signing each
// transcript takes well under 1 % of a core.
package crypt
