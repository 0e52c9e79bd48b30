package gf256

import (
	"encoding/binary"
	"fmt"
)

// This file holds the bulk ("slab") kernels: operations that apply GF(2^8)
// coefficients through precomputed tables instead of one log/exp lookup
// pair per byte.
//
//   - A full 256×256 product table (mulTable, 64 KiB, built at init) gives
//     per-coefficient 256-entry multiplication rows: MulRow(c)[x] = c·x.
//     Rows feed chained evaluations such as Horner steps, where each lookup
//     depends on the previous result.
//   - Reducer precomputes, for every field element v, the word-packed row
//     v·(divisor minus its leading term), so one reduction step of
//     polynomial division is a handful of 64-bit XORs. Reduce runs it over
//     one contiguous polynomial; ReduceColumnPair runs it down two adjacent
//     byte columns of a block-interleaved buffer at once.

// mulTable[c][x] = c·x. Built at package init (see gf256.go) right after
// the log/exp tables; rows are shared via MulRow and MulSlice.
var mulTable [256][256]byte

// MulRow returns the 256-entry multiplication row of c: row[x] = c·x.
// The row aliases a package-level table and must not be modified.
func MulRow(c byte) *[256]byte { return &mulTable[c] }

// MulSlice computes dst[i] = c·src[i] for all i through c's row. dst and
// src must have equal length; they may be the same slice (in-place
// scaling) but must not otherwise overlap.
func MulSlice(c byte, dst, src []byte) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("gf256: MulSlice length mismatch %d != %d", len(dst), len(src)))
	}
	row := &mulTable[c]
	for i, x := range src {
		dst[i] = row[x]
	}
}

// Reducer performs fast reduction of a polynomial (descending coefficient
// order) modulo a fixed monic divisor. It precomputes, for every field
// element v, the 64-bit-word-packed row v·(divisor without its leading 1),
// and runs the long division as a byte-wide LFSR whose Degree()-byte
// remainder window lives entirely in 64-bit registers: one division step
// is "cancel the leading term, slide the window a byte, XOR one row" —
// a handful of ALU ops instead of Degree() log/exp multiplies, with no
// store-to-load round trip through the buffer.
//
// A Reducer is immutable after construction and safe for concurrent use.
type Reducer struct {
	deg   int             // degree of the divisor
	words int             // row width in 64-bit words: ceil(deg/8)
	rows  []uint64        // 256 rows of `words` words; row v = v·divisor[1:], zero-padded
	rows4 *[256][4]uint64 // the rows instead, when words == 4: a byte index needs no bounds check and one row is one address
}

// NewReducer builds a Reducer for the given monic divisor polynomial in
// descending coefficient order (divisor[0] must be 1, degree ≥ 1). The
// table costs 256·ceil(deg/8) words — 8 KiB for the degree-32 generator of
// the paper's (255,223) code.
func NewReducer(divisor []byte) *Reducer {
	if len(divisor) < 2 || divisor[0] != 1 {
		panic(fmt.Sprintf("gf256: NewReducer wants a monic divisor of degree >= 1, got %d coefficients", len(divisor)))
	}
	deg := len(divisor) - 1
	words := (deg + 7) / 8
	r := &Reducer{deg: deg, words: words}
	if words == 4 {
		r.rows4 = new([256][4]uint64)
	} else {
		r.rows = make([]uint64, 256*words)
	}
	rowBytes := make([]byte, words*8)
	for v := 1; v < 256; v++ {
		MulSlice(byte(v), rowBytes[:deg], divisor[1:])
		for w := 0; w < words; w++ {
			x := binary.LittleEndian.Uint64(rowBytes[w*8:])
			if r.rows4 != nil {
				r.rows4[v][w] = x
			} else {
				r.rows[v*words+w] = x
			}
		}
	}
	return r
}

// Degree returns the degree of the divisor.
func (r *Reducer) Degree() int { return r.deg }

// Scratch returns the minimum buffer length Reduce needs for the given
// number of steps: steps coefficients plus one full row of write slack.
func (r *Reducer) Scratch(steps int) int { return steps + r.words*8 }

// Reduce runs `steps` long-division steps over buf: for each i < steps it
// cancels the (accumulated) coefficient at buf[i] by folding its multiple
// of the divisor into the following Degree() positions. Reducing a
// degree-(steps+Degree()-1) polynomial with its coefficients in
// buf[0:steps+Degree()] leaves the remainder modulo the divisor in
// buf[steps:steps+Degree()]. buf[:steps] is left untouched.
//
// buf must be at least Scratch(steps) long; the slack bytes past the
// remainder are scribbled on and must not hold live data.
func (r *Reducer) Reduce(buf []byte, steps int) {
	if len(buf) < r.Scratch(steps) {
		panic(fmt.Sprintf("gf256: Reduce buffer %d shorter than Scratch(%d)=%d", len(buf), steps, r.Scratch(steps)))
	}
	if r.rows4 != nil {
		r.reduce4(buf, steps)
		return
	}
	rows, words := r.rows, r.words
	// state holds the in-flight XOR contributions to the Degree()-byte
	// window just past position i, little-endian: byte 0 of state[0] is
	// the contribution to position i+1. Row 0 is all zeros, so v == 0
	// steps need no branch.
	state := make([]uint64, words)
	for i := 0; i < steps; i++ {
		v := buf[i] ^ byte(state[0])
		for w := 0; w < words-1; w++ {
			state[w] = state[w]>>8 | state[w+1]<<56
		}
		state[words-1] >>= 8
		row := rows[int(v)*words : int(v)*words+words]
		for w := range row {
			state[w] ^= row[w]
		}
	}
	for w := 0; w < words; w++ {
		p := buf[steps+w*8:]
		binary.LittleEndian.PutUint64(p, binary.LittleEndian.Uint64(p)^state[w])
	}
}

// reduce4 is Reduce specialised for four-word rows (degree 25..32, which
// covers the degree-32 generator of the paper's (255,223) code): the
// remainder window is four uint64s held in registers for the whole pass.
func (r *Reducer) reduce4(buf []byte, steps int) {
	rows := r.rows4
	var s0, s1, s2, s3 uint64
	for i := 0; i < steps; i++ {
		row := &rows[buf[i]^byte(s0)]
		s0 = (s0>>8 | s1<<56) ^ row[0]
		s1 = (s1>>8 | s2<<56) ^ row[1]
		s2 = (s2>>8 | s3<<56) ^ row[2]
		s3 = s3>>8 ^ row[3]
	}
	p := buf[steps : steps+32 : len(buf)]
	binary.LittleEndian.PutUint64(p[0:], binary.LittleEndian.Uint64(p[0:])^s0)
	binary.LittleEndian.PutUint64(p[8:], binary.LittleEndian.Uint64(p[8:])^s1)
	binary.LittleEndian.PutUint64(p[16:], binary.LittleEndian.Uint64(p[16:])^s2)
	binary.LittleEndian.PutUint64(p[24:], binary.LittleEndian.Uint64(p[24:])^s3)
}

// CanReduceColumnPair reports whether ReduceColumnPair is available: the
// divisor's rows must be four words wide (degree 25..32).
func (r *Reducer) CanReduceColumnPair() bool { return r.rows4 != nil }

// ReduceColumnPair runs `steps` long-division steps down byte columns col
// and col+1 of a block-interleaved buffer at once: row i of column c is
// src[i*stride+c], so each column is one polynomial stored with a stride
// and nothing is gathered. It stores into win[0] and win[1] the two
// remainder windows — the contributions the cancelled coefficients make to
// the Degree() positions that follow row steps-1, zero-padded to 32 bytes.
// With zeros there that window is column(x)·x^Degree() mod divisor (the
// parity of a systematic encoder); XORed with what is stored there it is
// the remainder Reduce would have left. src is only read.
//
// Both windows live in registers for the whole pass, as in reduce4, and
// the two columns' chains are independent: each step's row load waits on
// its own column's previous load only, so the two load-to-use latencies
// overlap instead of adding.
//
// It panics unless CanReduceColumnPair, 0 <= col, col+1 < stride and src
// holds steps full rows.
func (r *Reducer) ReduceColumnPair(win *[2][32]byte, src []byte, stride, col, steps int) {
	rows := r.rows4
	if rows == nil {
		panic(fmt.Sprintf("gf256: ReduceColumnPair needs four-word rows, divisor degree is %d", r.deg))
	}
	if col < 0 || col+1 >= stride {
		panic(fmt.Sprintf("gf256: ReduceColumnPair columns %d,%d outside stride %d", col, col+1, stride))
	}
	if steps < 0 || len(src) < steps*stride {
		panic(fmt.Sprintf("gf256: ReduceColumnPair buffer %d shorter than %d rows of %d", len(src), steps, stride))
	}
	var a0, a1, a2, a3, b0, b1, b2, b3 uint64
	for p := col; steps > 0; p, steps = p+stride, steps-1 {
		ra := &rows[src[p]^byte(a0)]
		rb := &rows[src[p+1]^byte(b0)]
		a0 = (a0>>8 | a1<<56) ^ ra[0]
		b0 = (b0>>8 | b1<<56) ^ rb[0]
		a1 = (a1>>8 | a2<<56) ^ ra[1]
		b1 = (b1>>8 | b2<<56) ^ rb[1]
		a2 = (a2>>8 | a3<<56) ^ ra[2]
		b2 = (b2>>8 | b3<<56) ^ rb[2]
		a3 = a3>>8 ^ ra[3]
		b3 = b3>>8 ^ rb[3]
	}
	binary.LittleEndian.PutUint64(win[0][0:], a0)
	binary.LittleEndian.PutUint64(win[0][8:], a1)
	binary.LittleEndian.PutUint64(win[0][16:], a2)
	binary.LittleEndian.PutUint64(win[0][24:], a3)
	binary.LittleEndian.PutUint64(win[1][0:], b0)
	binary.LittleEndian.PutUint64(win[1][8:], b1)
	binary.LittleEndian.PutUint64(win[1][16:], b2)
	binary.LittleEndian.PutUint64(win[1][24:], b3)
}
