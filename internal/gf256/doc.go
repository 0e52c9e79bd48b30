// Package gf256 implements arithmetic over the finite field GF(2^8).
//
// The field is realised as GF(2)[x]/(x^8 + x^4 + x^3 + x^2 + 1), i.e. the
// primitive polynomial 0x11D conventionally used by Reed-Solomon codes
// (CCSDS / QR / RAID-6 style). The generator element is α = 0x02.
//
// All operations are table-driven: a 256-entry log table and a 510-entry
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
// ReduceColumnPair therefore runs two of them at once, down two adjacent
// byte columns of a block-interleaved buffer (row i of column c at
// src[i·stride+c], the layout of a Reed-Solomon chunk), reading the buffer
// where it lies: the two chains share nothing but the row table, their
// loads overlap, and no column is ever gathered into a contiguous
// polynomial first. Two is the measured width: both windows (eight words)
// still fit in registers, and four columns were no faster. Reduce remains
// for one contiguous polynomial and for divisors whose rows are not four
// words wide; see slab.go.
package gf256
