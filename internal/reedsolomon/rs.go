package reedsolomon

import (
	"errors"
	"fmt"

	"repro/internal/gf256"
)

// Standard parameters of the adapted code used by the paper.
const (
	StdN = 255 // codeword length in symbols
	StdK = 223 // data symbols per codeword
	StdT = 16  // correctable symbol errors: (n-k)/2
)

// Common decoder failures. ErrTooManyErrors is returned when the received
// word is corrupted beyond the code's correction capability (or the decoder
// produced an inconsistent locator); callers treat it as data loss.
var (
	ErrTooManyErrors  = errors.New("reedsolomon: too many errors to correct")
	ErrWrongLength    = errors.New("reedsolomon: codeword has wrong length")
	ErrBadShape       = errors.New("reedsolomon: invalid code parameters")
	ErrBadErasurePos  = errors.New("reedsolomon: erasure position out of range")
	ErrVerifyMismatch = errors.New("reedsolomon: codeword fails parity check")
)

// Code is a systematic RS(n, k) code over GF(2^8) with first consecutive
// root α^1 (fcr = 1). It is safe for concurrent use once constructed.
//
// The data plane is a table-driven slab engine built at construction: a
// gf256.Reducer holding the 256 word-packed multiples of the generator
// polynomial drives encoding (parity = data·x^(n-k) mod g), verification
// (cw mod g == 0) and the clean-decode fast path, and per-root
// multiplication rows turn syndrome evaluation into chained table lookups
// over the (n-k)-coefficient remainder instead of Horner over all n
// symbols.
type Code struct {
	n, k    int
	gen     []byte         // generator polynomial, descending order, degree n-k
	red     *gf256.Reducer // slab reduction mod gen: encode/verify hot path
	synRows []*[256]byte   // synRows[i] = multiplication row of α^(i+1)
}

// New constructs an RS(n, k) code. n must be at most 255 and k must satisfy
// 0 < k < n.
func New(n, k int) (*Code, error) {
	if n > 255 || k <= 0 || k >= n {
		return nil, fmt.Errorf("%w: n=%d k=%d", ErrBadShape, n, k)
	}
	// g(x) = Π_{i=1..n-k} (x - α^i)
	gen := []byte{1}
	for i := 1; i <= n-k; i++ {
		gen = gf256.PolyMul(gen, []byte{1, gf256.Exp(i)})
	}
	synRows := make([]*[256]byte, n-k)
	for i := range synRows {
		synRows[i] = gf256.MulRow(gf256.Exp(i + 1))
	}
	return &Code{n: n, k: k, gen: gen, red: gf256.NewReducer(gen), synRows: synRows}, nil
}

// MustNew is New for statically known-good parameters; it panics on error
// and is intended for package-level defaults.
func MustNew(n, k int) *Code {
	c, err := New(n, k)
	if err != nil {
		panic(err)
	}
	return c
}

// N returns the codeword length in symbols.
func (c *Code) N() int { return c.n }

// K returns the number of data symbols per codeword.
func (c *Code) K() int { return c.k }

// T returns the number of correctable symbol errors, (n-k)/2.
func (c *Code) T() int { return (c.n - c.k) / 2 }

// Encode appends n-k parity symbols to the k data symbols and returns the
// full systematic codeword. data must be exactly k bytes.
func (c *Code) Encode(data []byte) ([]byte, error) {
	if len(data) != c.k {
		return nil, fmt.Errorf("%w: got %d data symbols, want %d", ErrWrongLength, len(data), c.k)
	}
	cw := make([]byte, c.n)
	copy(cw, data)
	// Remainder of data(x)·x^(n-k) mod g(x) gives the parity symbols.
	rem := make([]byte, c.red.Scratch(c.k))
	copy(rem, data)
	c.red.Reduce(rem, c.k)
	copy(cw[c.k:], rem[c.k:c.n])
	return cw, nil
}

// remainder computes cw mod g into the caller's scratch buffer (length at
// least Scratch(k)) and returns the n-k remainder coefficients. The
// remainder is zero exactly when cw is a valid codeword, because g divides
// every codeword and only those — the slab-engine equivalent of computing
// all syndromes.
func (c *Code) remainder(scratch, cw []byte) []byte {
	n := copy(scratch, cw)
	for i := n; i < len(scratch); i++ {
		scratch[i] = 0
	}
	c.red.Reduce(scratch, c.k)
	return scratch[c.k:c.n]
}

// Verify reports whether cw is a valid codeword (all syndromes zero).
func (c *Code) Verify(cw []byte) error {
	if len(cw) != c.n {
		return fmt.Errorf("%w: got %d symbols, want %d", ErrWrongLength, len(cw), c.n)
	}
	if !allZero(c.remainder(make([]byte, c.red.Scratch(c.k)), cw)) {
		return ErrVerifyMismatch
	}
	return nil
}

// Decode corrects up to T symbol errors in place and returns the k data
// symbols. erasures lists symbol positions known to be unreliable; with e
// erasures and v unknown errors, decoding succeeds when 2v+e ≤ n-k.
func (c *Code) Decode(cw []byte, erasures []int) ([]byte, error) {
	if len(cw) != c.n {
		return nil, fmt.Errorf("%w: got %d symbols, want %d", ErrWrongLength, len(cw), c.n)
	}
	for _, p := range erasures {
		if p < 0 || p >= c.n {
			return nil, fmt.Errorf("%w: %d", ErrBadErasurePos, p)
		}
	}
	if len(erasures) > c.n-c.k {
		return nil, ErrTooManyErrors
	}

	// Clean fast path: one slab reduction decides whether any error
	// machinery is needed at all.
	var buf [maxScratch]byte
	scratch := buf[:c.red.Scratch(c.k)]
	r := c.remainder(scratch, cw)
	if allZero(r) {
		return cw[:c.k], nil
	}
	var synd [255]byte
	if err := c.correct(cw, c.syndromes(synd[:], r), erasures, scratch); err != nil {
		return nil, err
	}
	return cw[:c.k], nil
}

// correct repairs cw in place given its (nonzero) syndromes, treating the
// listed erasure positions as known-bad. scratch is a Scratch(k)-sized
// buffer reused for the final parity re-check. The caller has already
// validated erasure positions and count. Every polynomial it builds has
// degree below 256 and lives in a [256]byte on the stack.
func (c *Code) correct(cw, synd []byte, erasures []int, scratch []byte) error {
	// Erasure locator Γ(x) = Π (1 - x·α^{pos'}) where pos' is the
	// power-of-α position index counted from the highest-degree symbol.
	var gb [256]byte
	gamma := gb[:1]
	gamma[0] = 1 // ascending order
	for _, p := range erasures {
		gamma = mulLinear(gamma, gf256.Exp(c.n-1-p))
	}
	// Forney syndromes fold erasure knowledge into the key equation so
	// Berlekamp-Massey only has to find the unknown errors: take
	// Γ(x)·S(x) mod x^{2t} and drop the e low-order coefficients.
	var fb [256]byte
	fsynd := polyMulMod(fb[:c.n-c.k], gamma, synd)[len(erasures):]

	var lb [256]byte
	lambda, err := berlekampMassey(&lb, fsynd)
	if err != nil {
		return err
	}
	// Full locator = error locator × erasure locator.
	var locb [256]byte
	locator := polyMul(locb[:len(lambda)+len(gamma)-1], lambda, gamma)

	// Λ = 1 means no error outside the erasure list: the locator is Γ
	// itself and its roots are the erasure positions by construction, so
	// the search over all n positions would only rediscover them. A
	// repeated position makes Γ's roots fewer than its degree; that case
	// keeps the search and the ErrTooManyErrors it ends in.
	positions := erasures
	if len(lambda) != 1 || !distinct(erasures) {
		var roots [255]int
		if positions, err = c.locatorRoots(roots[:0], locator); err != nil {
			return err
		}
	}
	if err := c.forney(cw, synd, locator, positions); err != nil {
		return err
	}
	if !allZero(c.remainder(scratch, cw)) {
		return ErrTooManyErrors
	}
	return nil
}

// syndromes evaluates S_i = r(α^i) for i = 1..n-k over the n-k remainder
// coefficients r = cw mod g (descending order) into dst and returns
// dst[:n-k]. Because g(α^i) = 0 for every root, r(α^i) equals cw(α^i)
// exactly, so these are the classical syndromes at a fraction of the
// work: a Horner chain of n-k table-row lookups per syndrome instead of n
// multiplies.
func (c *Code) syndromes(dst, r []byte) []byte {
	dst = dst[:c.n-c.k]
	for i := range dst {
		row := c.synRows[i]
		var y byte
		for _, v := range r {
			y = row[y] ^ v
		}
		dst[i] = y
	}
	return dst
}

// berlekampMassey finds the error-locator polynomial Λ(x) (ascending
// order, Λ(0)=1) from the given syndrome sequence, building it in *out.
// No polynomial it holds outgrows len(synd)+1 ≤ 255 coefficients.
func berlekampMassey(out *[256]byte, synd []byte) ([]byte, error) {
	lambda := out[:1]
	lambda[0] = 1
	var pb [2][256]byte
	prev, spare := &pb[0], &pb[1]
	prev[0] = 1
	prevLen := 1
	var l int
	var m = 1
	var b byte = 1
	for n := 0; n < len(synd); n++ {
		// Discrepancy δ = Σ Λ_i · S_{n-i}.
		var delta byte
		for i := 0; i <= l && i < len(lambda); i++ {
			if n-i >= 0 && n-i < len(synd) {
				delta ^= gf256.Mul(lambda[i], synd[n-i])
			}
		}
		if delta == 0 {
			m++
			continue
		}
		coef := gf256.Div(delta, b)
		if 2*l <= n {
			tLen := copy(spare[:], lambda)
			lambda = addShiftScaled(lambda, prev[:prevLen], m, coef)
			l = n + 1 - l
			prev, spare, prevLen = spare, prev, tLen
			b = delta
			m = 1
		} else {
			lambda = addShiftScaled(lambda, prev[:prevLen], m, coef)
			m++
		}
	}
	if 2*l > len(synd) {
		return nil, ErrTooManyErrors
	}
	return trimAsc(lambda), nil
}

// locatorRoots finds the roots of the locator polynomial, appends their
// codeword positions to dst (capacity n keeps it off the heap) and
// returns them.
func (c *Code) locatorRoots(dst []int, locator []byte) ([]int, error) {
	deg := len(locator) - 1
	for i := 0; i < c.n; i++ {
		// Position i (from the start of the codeword) corresponds to
		// α^{n-1-i}; it is a root location when Λ(α^{-(n-1-i)}) = 0.
		if gf256.PolyValAscending(locator, gf256.Exp(-(c.n-1-i))) == 0 {
			dst = append(dst, i)
		}
	}
	if len(dst) != deg {
		return nil, ErrTooManyErrors
	}
	return dst, nil
}

// forney computes the error magnitudes and corrects cw in place.
func (c *Code) forney(cw, synd, locator []byte, positions []int) error {
	// Error evaluator Ω(x) = S(x)·Λ(x) mod x^{n-k}.
	var ob [256]byte
	omega := polyMulMod(ob[:c.n-c.k], locator, synd)
	// Formal derivative Λ'(x): in characteristic 2 the even-degree terms
	// vanish.
	var db [128]byte
	deriv := db[:0]
	for i := 1; i < len(locator); i += 2 {
		deriv = append(deriv, locator[i])
	}
	for _, p := range positions {
		xInv := gf256.Exp(-(c.n - 1 - p))
		num := gf256.PolyValAscending(omega, xInv)
		// Λ'(x) evaluated at xInv, accounting for the skipped odd
		// powers: Λ'(x) = Σ_{i odd} Λ_i x^{i-1} = Σ_j deriv[j]·x^{2j}.
		den := gf256.PolyValAscending(deriv, gf256.Mul(xInv, xInv))
		if den == 0 {
			return ErrTooManyErrors
		}
		// Forney with fcr=1: magnitude = Ω(X^{-1})/Λ'(X^{-1}) where
		// X = α^{n-1-p} (the sign is immaterial in characteristic 2).
		cw[p] ^= gf256.Div(num, den)
	}
	return nil
}

// distinct reports whether no codeword position occurs twice in ps; the
// caller has already bounded every position to [0, 255).
func distinct(ps []int) bool {
	var seen [255]bool
	for _, p := range ps {
		if seen[p] {
			return false
		}
		seen[p] = true
	}
	return true
}

func allZero(p []byte) bool {
	for _, v := range p {
		if v != 0 {
			return false
		}
	}
	return true
}

// --- ascending-order polynomial helpers ---
//
// Each writes into a caller-provided slice, which the decoder backs with
// a [256]byte on the stack.

// polyMul sets dst (length len(a)+len(b)-1) to a·b and returns it.
func polyMul(dst, a, b []byte) []byte {
	clear(dst)
	for i, ca := range a {
		if ca == 0 {
			continue
		}
		row := gf256.MulRow(ca)
		for j, cb := range b {
			dst[i+j] ^= row[cb]
		}
	}
	return dst
}

// polyMulMod sets dst to a·b mod x^len(dst) and returns it.
func polyMulMod(dst, a, b []byte) []byte {
	clear(dst)
	mod := len(dst)
	for i, ca := range a {
		if ca == 0 || i >= mod {
			continue
		}
		row := gf256.MulRow(ca)
		for j, cb := range b {
			if i+j >= mod {
				break
			}
			dst[i+j] ^= row[cb]
		}
	}
	return dst
}

// mulLinear multiplies p by (1 + a·x) in place, growing it by one
// coefficient within its capacity.
func mulLinear(p []byte, a byte) []byte {
	row := gf256.MulRow(a)
	p = append(p, 0)
	for i := len(p) - 1; i > 0; i-- {
		p[i] ^= row[p[i-1]]
	}
	return p
}

// addShiftScaled adds c·x^shift·q to p in place, growing p with zeros to
// len(q)+shift within its capacity.
func addShiftScaled(p, q []byte, shift int, c byte) []byte {
	for len(p) < len(q)+shift {
		p = append(p, 0)
	}
	row := gf256.MulRow(c)
	for i, v := range q {
		p[i+shift] ^= row[v]
	}
	return p
}

func trimAsc(p []byte) []byte {
	i := len(p)
	for i > 1 && p[i-1] == 0 {
		i--
	}
	return p[:i]
}
