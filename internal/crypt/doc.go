// Package crypt bundles the cryptographic primitives GeoProof builds on:
// key derivation, AES-CTR bulk encryption, truncated AES-CMAC segment tags
// and ECDSA transcript signatures.
//
// The paper's setup phase (§V-A) encrypts the error-corrected file with a
// symmetric cipher, permutes it, then MACs v-block segments with short
// (e.g. 20-bit) tags; the verifier device signs audit transcripts with a
// private key (§V-B). All primitives here are from the Go standard
// library; only composition is local.
//
// The bulk paths are built for the concurrent encoder. EncryptCTRAt seeks
// the standard library's CTR stream to an arbitrary (even unaligned) byte
// offset, so shards of one stream are encrypted independently, at the
// speed of its multi-block assembly, and bit-identically to one
// sequential pass. Tagger is AES-CMAC (RFC 4493) over a header block
// binding segment index and file ID followed by the segment — seven AES
// blocks for the paper's five-block segment — truncated to the tag width
// (at most MaxTagBits = 128); its slab forms TagSlab and VerifySlab carry
// four segments of a run through the CBC chain side by side, and every
// form but Tag is allocation-free.
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
