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

// PolyAdd adds two polynomials in descending-degree order.
func PolyAdd(a, b []byte) []byte {
	if len(a) < len(b) {
		a, b = b, a
	}
	out := make([]byte, len(a))
	copy(out, a)
	off := len(a) - len(b)
	for i, c := range b {
		out[off+i] ^= c
	}
	return out
}

// PolyScale multiplies every coefficient of p by c.
func PolyScale(p []byte, c byte) []byte {
	out := make([]byte, len(p))
	for i, v := range p {
		out[i] = Mul(v, c)
	}
	return out
}

// PolyDivMod divides a by b (descending-degree order), returning quotient
// and remainder. Division by the zero polynomial panics.
func PolyDivMod(a, b []byte) (quo, rem []byte) {
	b = trimPoly(b)
	if len(b) == 0 {
		panic("gf256: polynomial division by zero")
	}
	rem = make([]byte, len(a))
	copy(rem, a)
	if len(a) < len(b) {
		return nil, trimPoly(rem)
	}
	quo = make([]byte, len(a)-len(b)+1)
	inv := Inv(b[0])
	for i := 0; i <= len(rem)-len(b); i++ {
		c := Mul(rem[i], inv)
		quo[i] = c
		if c == 0 {
			continue
		}
		for j, bc := range b {
			rem[i+j] ^= Mul(c, bc)
		}
	}
	return quo, trimPoly(rem[len(quo):])
}

func trimPoly(p []byte) []byte {
	i := 0
	for i < len(p) && p[i] == 0 {
		i++
	}
	return p[i:]
}
