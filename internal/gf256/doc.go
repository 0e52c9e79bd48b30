// Package gf256 implements arithmetic over the finite field GF(2^8).
//
// The field is realised as GF(2)[x]/(x^8 + x^4 + x^3 + x^2 + 1), i.e. the
// primitive polynomial 0x11D conventionally used by Reed-Solomon codes
// (CCSDS / QR / RAID-6 style). The generator element is α = 0x02.
//
// The portable operations are table-driven: a 256-entry log table and a 510-entry
// anti-log (exp) table make multiplication, division and exponentiation a
// couple of array lookups, and a full 256×256 product table backs the bulk
// slab kernels (MulRow, MulSlice and Reducer in slab.go) that the
// Reed-Solomon data plane is built on. The tables are computed once at
// package initialisation from the primitive polynomial; the computation
// is fully deterministic and performs no I/O, which keeps it within the
// accepted uses of init-time work.
//
// # Slab kernel layout
//
// The bulk kernels avoid per-byte log/exp pairs with precomputed rows.
// MulRow(c) is the 256-entry row c·x, so a Horner step is one dependent L1
// load. Reducer precomputes, for every field element v, the word-packed
// row v·(divisor tail), and runs polynomial long division as a byte-wide
// LFSR whose remainder window stays in 64-bit registers: one step cancels
// the leading coefficient, slides the window a byte and XORs one row.
//
// A single LFSR is a serial chain — each step's row address needs the
// window byte the previous step's row load produced, so it runs at one
// load-to-use latency per input byte however few instructions a step is.
// Two things break the chain for four-word rows (divisor degree 25..32,
// the paper's generator among them):
//
//   - Slicing-by-4, as in CRC. A row is GF(2)-linear in its index
//     (row[a^b] = row[a]^row[b]), so four steps over input bytes m0..m3
//     collapse into one:
//
//     w = w>>32 ^ U3[m0^w.b0] ^ U2[m1^w.b1] ^ U1[m2^w.b2] ^ U0[m3^w.b3]
//
//     where U0 is the row table and U_k[v] is row v advanced k zero-input
//     steps (three more 8 KiB tables). The four loads are independent;
//     the load count per byte is unchanged. Leftover steps (steps mod 4)
//     run one at a time.
//
//   - ReduceColumnPair runs two such chains at once, down two adjacent
//     byte columns of a block-interleaved buffer (row i of column c at
//     src[i·stride+c], the layout of a Reed-Solomon chunk), reading the
//     buffer where it lies: the chains share nothing but the tables, and
//     no column is ever gathered into a contiguous polynomial first.
//
// Reduce runs the same four-step round over one contiguous polynomial, and
// its generic one-step loop remains for divisors whose rows are not four
// words wide; see slab.go.
//
// # GFNI column kernel (amd64)
//
// ReduceColumns16 runs the same LFSR down sixteen adjacent byte columns at
// once, one instruction sequence per row, for any divisor of degree ≤ 32
// (columns.go, columns_amd64.s).
//
// Multiplication by a constant c is GF(2)-linear in the bits of its
// argument, so it is an 8×8 bit matrix, and VGF2P8AFFINEQB applies such a
// matrix to every byte of a register. The instruction reads the matrix
// from the quadword lane the byte sits in: byte 7-i of the quadword is row
// i, and output bit i is the parity of row i AND the input byte. Row i of
// the matrix of c therefore has bit j set when bit i of c·x^j mod Poly
// (0x11D) is set. The instruction's field is fixed by nothing but the
// matrix, so the AES polynomial that GF2P8MULB hard-wires never enters.
//
// Register layout: the remainder window of up to 32 rows of 16 bytes —
// row r holds byte r of each column's window — lives in eight ZMM
// registers, four 16-byte rows each, row 0 (the row the next quotient
// step cancels) in the low lane of Z0. Eight more registers hold each
// row's matrix, multiplication by divisor coefficient r+1, in both
// quadwords of its lane: 512 bytes of constants, zero past the degree so
// those rows stay zero. One division step per data row: XOR the data row
// (a byte-masked load, so a group narrower than sixteen columns reads
// only its own bytes) into row 0 and broadcast that feedback row to all
// four lanes; shift every register up one row with VALIGNQ, the next
// register's row 0 entering lane 3; apply each register's matrices to the
// feedback and XOR the products in. After the last row the eight
// registers are stored as the 32 remainder rows, which for a
// Reed-Solomon chunk are the parity blocks' bytes themselves.
//
// CPU and OS checks: the kernel runs when CPUID reports AVX512F, AVX512BW
// (byte masks) and GFNI, and XGETBV — read only when CPUID reports
// OSXSAVE — shows the OS saving opmask and all of ZMM state in XCR0 (bits
// 1, 2, 5, 6, 7). macOS enables AVX-512 state lazily, on a thread's first
// use, so there XCR0 says no and the portable kernels run. The decision is
// made once, at package initialisation, and nothing else selects a kernel:
// no flag, option, environment variable or build tag. KernelMissing names
// what a host lacks. Off amd64, and for divisors of degree above 32, the
// slicing-by-4 and one-step kernels above are the only ones.
//
// Why the LFSR and not a matrix product: with k data rows and d remainder
// rows, the remainder is also a fixed k×d matrix over GF(2^8) applied to
// each column, which a GFNI kernel can run as k·d independent affine
// products with no serial chain. For the paper's (255,223) code that kernel
// was about 15 % faster than this one, but its ≈ 112 KiB of matrices per
// code, kept live beside the stores that use them, raised por-retrieve's
// median peak heap from ≈ 3.36 to ≈ 3.71 MiB for about the same
// end-to-end gain. The LFSR form's 512 bytes cost nothing.
package gf256
