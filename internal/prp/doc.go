// Package prp provides a keyed pseudorandom permutation over an arbitrary
// integer domain [0, n).
//
// GeoProof's POR setup (paper §V-A, step 4) reorders the encrypted file
// blocks with a pseudorandom permutation in the spirit of Luby-Rackoff
// [28]. Feistel is that PRF→PRP construction fitted to the domain rather
// than to a power of two covering it (Black and Rogaway, "Ciphers with
// arbitrary finite domains", CT-RSA 2002): a Feistel network on
// Z_a × Z_a with a = ⌈√n⌉, whose round adds the round function's value
// mod a where a binary Feistel would XOR it, composed with cycle walking
// over the fewer than 2a points by which a² overshoots n — about one
// extra pass per √n/2 positions. The round function is a single AES block
// encryption reduced mod a, memoized on the bulk-encode path in a table of
// rounds × a uint32s (48 KiB for a 32 MiB file; capped at 16 MiB, which
// covers files to 4 TiB); larger domains evaluate AES per round.
//
// Feistel satisfies the Permutation interface, is deterministic for a
// given key, and is safe for concurrent use. IndexBatch is the bulk entry
// point the encoder's permutation stage uses: it steps (l, r) from one
// consecutive position to the next without a divide and carries four
// positions through the table rounds together, with a branch-free mod-a
// add.
package prp
