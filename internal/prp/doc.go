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
// Feistel is deterministic for a given key and safe for concurrent use.
// IndexBatch, the bulk entry point of the POR pipeline, steps (l, r) from
// one consecutive position to the next without a divide, and every
// round's mod-a add is branch-free.
//
// # The AVX-512 kernel
//
// Where CPUID and XCR0 show AVX-512F and the OS's ZMM state (no flag
// chooses it), IndexBatch runs each whole 64-position block of a domain
// with a ≥ 64 through indexBlock64: four 16-lane vectors per round, one
// dword gather each from the table row, the mod-a add as add, subtract a,
// unsigned minimum. It stores l·a + r as 64-bit words and returns the
// mask of lanes at or past n, which alone cycle-walk in Go. The remainder,
// a < 64, other hosts and untabled domains take the portable four-lane
// loop or Index. The kernel is trusted by differential tests, not by
// itself: every batch shape runs on both table paths against a twin that
// evaluates AES every round (a = 63/64/65, every block start phase,
// batches ending on the last position, a > 2¹⁶, the paper's 153M-block
// domain, walks inside kernel blocks; the fuzzer likewise), and por's
// TestEncodePinned pins the encoded bytes.
package prp
