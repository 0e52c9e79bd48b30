// Package crypt bundles the cryptographic primitives GeoProof builds on:
// key derivation, AES-CTR bulk encryption, truncated AES-CMAC segment tags
// and ECDSA transcript signatures.
//
// The paper's setup phase (§V-A) encrypts the error-corrected file with a
// symmetric cipher, permutes it, then MACs v-block segments with short
// (e.g. 20-bit) tags; the verifier device signs audit transcripts with a
// private key (§V-B).
//
// The bulk paths are built for the concurrent encoder. EncryptCTRAt seeks
// the standard library's CTR stream to an arbitrary (even unaligned) byte
// offset, so shards of one stream are encrypted independently, at the
// speed of its multi-block assembly, and bit-identically to one
// sequential pass. Tagger is AES-CMAC (RFC 4493) over a header block
// binding segment index and file ID followed by the segment — six AES
// blocks for the paper's five-block segment — truncated to the tag width
// (at most MaxTagBits = 128); every form but Tag is allocation-free.
//
// # The segment tag kernel
//
// The slab forms TagSlab and VerifySlab, which the setup pipeline and the
// extractor run over every segment, carry eight segments of a run through
// the CBC chain at once in an amd64 assembly kernel (cbcmac8, one chain
// per XMM register), and the run's last run mod 8 segments four at a time
// through cipher.Block. The kernel runs where CPUID reports AES-NI, read
// once at start-up; other hosts and architectures take the four-lane path
// for the whole run. Tag, AppendTag and VerifyTag, the TPA's audit-path
// checks, always take the one-lane cipher.Block path. The tag format is
// the same on every path.
//
// Every other primitive here is the Go standard library's. The kernel is
// local code, and its trust argument is this: the AES rounds are the
// CPU's AESENC/AESENCLAST instructions, and the AES-128 key schedule is
// expanded by AESKEYGENASSIST, so no table is indexed by a secret byte and
// the kernel runs in constant time. It is tested against crypto/aes:
// the key schedule against FIPS-197 Appendix A.1 and random keys, whole
// tags against RFC 4493 and a straight-line reference CMAC on both paths,
// under the fuzzer as well.
//
// # Amortized transcript signing
//
// BatchSigner breaks the one-ECDSA-signature-per-audit cap: concurrent
// audits hand it their canonical transcript digests, it accumulates
// them as leaves of one Merkle tree (flushing on a batch-size bound or
// a max-latency bound, whichever comes first) and signs only the root.
// Each audit gets back a RootAttestation — the root, one signature over
// it, and that leaf's inclusion proof.
//
// The trust argument is unchanged from per-transcript signing. A
// per-transcript signature says "the verifier device vouches for
// exactly these transcript bytes". A RootAttestation says the same
// through two links: the ECDSA signature binds the verifier to the
// root, and the Merkle inclusion proof binds the transcript digest to
// that root through a collision-resistant hash path — so forging an
// attestation for bytes the verifier never saw still requires either
// forging ECDSA or finding a SHA-256 collision. Root signatures are
// domain-separated (SignBatchRoot/VerifyBatchRoot prefix a fixed tag)
// so a signed root can never double as a signed transcript or vice
// versa. What batching does give up is only a little latency: a digest
// waits up to MaxLatency for co-travellers before its root is signed.
package crypt
