package gf256

import "fmt"

// This file holds the Go side of the GFNI column kernel: the 8×8 GF(2)
// matrices it multiplies with, and ReduceColumns16, which checks its
// arguments and hands the pass to the assembly (columns_amd64.s). Whether
// the kernel runs is decided once, from the CPU; see kernelMissing.

// affineMatrix returns the 8×8 GF(2) matrix of multiplication by c under
// Poly, packed the way VGF2P8AFFINEQB reads one: byte 7-i holds row i,
// whose bit j is bit i of c·x^j, so output bit i of c·v is the parity of
// row i AND v.
func affineMatrix(c byte) uint64 {
	var m uint64
	for j := 0; j < 8; j++ {
		col := Mul(c, 1<<j)
		for i := 0; i < 8; i++ {
			m |= uint64(col>>i&1) << (8*(7-i) + j)
		}
	}
	return m
}

// newColumnMatrices lays out the kernel's constants for a divisor of
// degree ≤ 32: remainder row r sits in bytes 16(r%4)..16(r%4)+15 of
// register r/4, so its matrix — multiplication by divisor[1+r] — fills
// both quadwords of that 16-byte lane. Rows from the degree on keep the
// zero matrix, so they stay zero.
func newColumnMatrices(divisor []byte) *[8][64]byte {
	m := new([8][64]byte)
	for r, c := range divisor[1:] {
		a := affineMatrix(c)
		lane := m[r/4][16*(r%4) : 16*(r%4)+16]
		for b := 0; b < 8; b++ {
			lane[b] = byte(a >> (8 * b))
			lane[8+b] = byte(a >> (8 * b))
		}
	}
	return m
}

// KernelMissing returns "" when this host runs the GFNI column kernel
// (ReduceColumns16), and otherwise the CPU or OS feature it lacks.
func KernelMissing() string { return kernelMissing }

// CanReduceColumns16 reports whether ReduceColumns16 is available: the
// host runs the GFNI kernel and the divisor has degree at most 32.
func (r *Reducer) CanReduceColumns16() bool { return r.mats != nil }

// ReduceColumns16 runs `steps` long-division steps down the width ≤ 16
// adjacent byte columns col..col+width-1 of a block-interleaved buffer at
// once (row i of column c is src[i*stride+c], as for ReduceColumnPair) and
// stores the remainder windows into rem as rows: rem[b][c] is byte b of
// column col+c's window, the byte ReduceColumnPair stores at win[·][b].
// Rows from Degree() on and bytes from width on are zero. src is only
// read, and only inside the columns named.
//
// The pass is one GFNI instruction sequence per row for all the columns;
// see the package documentation.
//
// It panics unless CanReduceColumns16, 1 <= width <= 16, 0 <= col,
// col+width <= stride and src holds steps full rows.
func (r *Reducer) ReduceColumns16(rem *[32][16]byte, src []byte, stride, col, width, steps int) {
	if r.mats == nil {
		panic(fmt.Sprintf("gf256: ReduceColumns16 needs the GFNI kernel and a divisor of degree <= 32, divisor degree is %d, host lacks %q", r.deg, kernelMissing))
	}
	if width < 1 || width > 16 || col < 0 || col+width > stride {
		panic(fmt.Sprintf("gf256: ReduceColumns16 columns %d..%d outside stride %d", col, col+width-1, stride))
	}
	if steps < 0 || len(src) < steps*stride {
		panic(fmt.Sprintf("gf256: ReduceColumns16 buffer %d shorter than %d rows of %d", len(src), steps, stride))
	}
	if steps == 0 {
		*rem = [32][16]byte{}
		return
	}
	reduceColumns16(r.mats, rem, &src[col], stride, steps, 1<<width-1)
}
