package gf256

// PolyVal evaluates the polynomial p (coefficients in descending-degree
// order, p[0] is the highest-degree coefficient) at the point x using
// Horner's rule.
func PolyVal(p []byte, x byte) byte {
	var y byte
	for _, c := range p {
		y = Mul(y, x) ^ c
	}
	return y
}

// PolyValAscending evaluates p with coefficients in ascending-degree order
// (p[0] is the constant term) at x. Syndrome and locator polynomials in the
// Reed-Solomon decoder use this layout. Each Horner step is one lookup in
// x's multiplication row.
func PolyValAscending(p []byte, x byte) byte {
	row := &mulTable[x]
	var y byte
	for i := len(p) - 1; i >= 0; i-- {
		y = row[y] ^ p[i]
	}
	return y
}

// PolyMul multiplies two polynomials in descending-degree order.
func PolyMul(a, b []byte) []byte {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	out := make([]byte, len(a)+len(b)-1)
	for i, ca := range a {
		if ca == 0 {
			continue
		}
		for j, cb := range b {
			out[i+j] ^= Mul(ca, cb)
		}
	}
	return out
}
