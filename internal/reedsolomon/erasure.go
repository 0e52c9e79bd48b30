package reedsolomon

import (
	"bytes"

	"repro/internal/gf256"
)

// erasureSolver solves a chunk's erasure list once for all its stripes.
// Every stripe of a chunk shares the list, and a stripe whose damage lies
// on it received cw = c + Σ y_i·x^(n-1-p_i) for some codeword c, so its
// remainder is w = cw mod g = Σ y_i·R_i with R_i = x^(n-1-p_i) mod g. For
// distinct positions the R_i are independent — a nonzero combination
// divisible by g would be a codeword of weight at most e ≤ n-k, below the
// minimum distance n-k+1 — so some e rows piv of the (n-k)×e matrix
// [R_1 … R_e] form an invertible block A, and y = A⁻¹·w[piv].
//
// solve accepts y only when Σ y_i·R_i reproduces all of w, i.e. when
// subtracting y at the listed positions leaves a codeword. That codeword
// is within e ≤ n-k of the received stripe on the listed positions alone,
// so it is the one correct's errors-and-erasures decoder returns too; any
// other stripe is declined and goes to correct unchanged.
type erasureSolver struct {
	m, e int
	rem  []byte // R_i at rem[i*m:(i+1)*m], descending like w
	elim []byte // eliminated rows [I | (A^T)⁻¹] of m+e bytes: y_i = Σ_a w[piv[a]]·(A^T)⁻¹[a][i]
	piv  []byte // pivot rows of [R_1 … R_e]; n-k ≤ 254 fits a byte
	y    []byte // the last stripe's error values
}

// stackSolver is the state newErasureSolver needs for the paper's code
// (n-k = 32) at its full budget of 32 erasures.
const stackSolver = 32*32 + 32*(32+32) + 2*32

// newErasureSolver prepares the list's inverse in buf, or in a fresh
// buffer when the shape needs more than len(buf) bytes. It reports false
// — decline every stripe — for an empty list and for one whose R_i are
// dependent, which for validated positions means a repeated one. The
// caller has validated the positions and len(erasures) ≤ n-k.
func newErasureSolver(c *Code, erasures []int, buf []byte) (erasureSolver, bool) {
	m, e := c.n-c.k, len(erasures)
	if e == 0 {
		return erasureSolver{}, false
	}
	stride := m + e
	if need := e*m + e*stride + 2*e; len(buf) < need {
		buf = make([]byte, need)
	}
	s := erasureSolver{m: m, e: e}
	s.rem, buf = buf[:e*m], buf[e*m:]
	work, buf := buf[:e*stride], buf[e*stride:]
	s.piv, s.y = buf[:e], buf[e:2*e]

	// work row i starts as [R_i | unit row i]; Gauss-Jordan elimination on
	// the R_i part turns the right-hand part into the inverse.
	var sc [maxScratch]byte
	scratch := sc[:c.red.Scratch(c.k)]
	for i, p := range erasures {
		clear(scratch)
		scratch[p] = 1 // x^(n-1-p), descending over n positions
		c.red.Reduce(scratch, c.k)
		copy(s.rem[i*m:], scratch[c.k:c.n])
		row := work[i*stride : (i+1)*stride]
		copy(row, scratch[c.k:c.n])
		clear(row[m:])
		row[m+i] = 1
	}
	for i := 0; i < e; i++ {
		row := work[i*stride : (i+1)*stride]
		col := firstNonzero(row[:m])
		if col < 0 {
			return erasureSolver{}, false
		}
		gf256.MulSlice(gf256.Inv(row[col]), row, row)
		for j := 0; j < e; j++ {
			other := work[j*stride : (j+1)*stride]
			if f := other[col]; j != i && f != 0 {
				mul := gf256.MulRow(f)
				for x, v := range row {
					other[x] ^= mul[v]
				}
			}
		}
		s.piv[i] = byte(col)
	}
	s.elim = work
	return s, true
}

// solve returns the error values at the listed positions for a stripe
// with remainder w, and whether they account for all of w. The values
// alias the solver and are overwritten by the next call.
func (s *erasureSolver) solve(w []byte) ([]byte, bool) {
	y, stride := s.y, s.m+s.e
	clear(y)
	for a, r := range s.piv {
		mul := gf256.MulRow(w[r])
		for i, v := range s.elim[a*stride+s.m : (a+1)*stride] {
			y[i] ^= mul[v]
		}
	}
	var acc [255]byte
	check := acc[:s.m]
	for i, yi := range y {
		if yi == 0 {
			continue
		}
		mul := gf256.MulRow(yi)
		for r, v := range s.rem[i*s.m : (i+1)*s.m] {
			check[r] ^= mul[v]
		}
	}
	return y, bytes.Equal(check, w)
}

func firstNonzero(p []byte) int {
	for i, v := range p {
		if v != 0 {
			return i
		}
	}
	return -1
}
