package gf256

// Poly is the primitive polynomial x^8+x^4+x^3+x^2+1 used to construct the
// field. The ninth bit (0x100) is the leading x^8 term.
const Poly = 0x11D

// Generator is the primitive element α whose powers enumerate all non-zero
// field elements.
const Generator = 0x02

var (
	_exp [510]byte // _exp[i] = α^i, doubled so Mul can skip a modulo
	_log [256]byte // _log[α^i] = i; _log[0] is unused
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		_exp[i] = byte(x)
		_exp[i+255] = byte(x)
		_log[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= Poly
		}
	}
	// Full product table for the slab kernels (slab.go): row c holds c·x
	// for every x. 64 KiB, shared by MulRow and MulSlice.
	for c := 1; c < 256; c++ {
		lc := int(_log[c])
		row := &mulTable[c]
		for x := 1; x < 256; x++ {
			row[x] = _exp[lc+int(_log[x])]
		}
	}
}

// Add returns a+b in GF(2^8). Addition is XOR; it is its own inverse, so
// Sub is identical.
func Add(a, b byte) byte { return a ^ b }

// Sub returns a-b in GF(2^8). In characteristic 2 subtraction equals
// addition.
func Sub(a, b byte) byte { return a ^ b }

// Mul returns a·b in GF(2^8).
func Mul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return _exp[int(_log[a])+int(_log[b])]
}

// Div returns a/b in GF(2^8). Division by zero panics, mirroring the
// behaviour of integer division: it is a programming error, not a
// recoverable condition.
func Div(a, b byte) byte {
	if b == 0 {
		panic("gf256: division by zero")
	}
	if a == 0 {
		return 0
	}
	d := int(_log[a]) - int(_log[b])
	if d < 0 {
		d += 255
	}
	return _exp[d]
}

// Inv returns the multiplicative inverse of a. Inverting zero panics.
func Inv(a byte) byte {
	if a == 0 {
		panic("gf256: inverse of zero")
	}
	return _exp[255-int(_log[a])]
}

// Exp returns α^n for any integer n (negative exponents allowed).
func Exp(n int) byte {
	n %= 255
	if n < 0 {
		n += 255
	}
	return _exp[n]
}

// Log returns the discrete logarithm of a to base α. Log of zero is
// undefined and panics.
func Log(a byte) int {
	if a == 0 {
		panic("gf256: log of zero")
	}
	return int(_log[a])
}

// Pow returns a^n in GF(2^8) for n ≥ 0; 0^0 is defined as 1 to match the
// usual polynomial-evaluation convention.
func Pow(a byte, n int) byte {
	if n == 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	e := (int(_log[a]) * n) % 255
	if e < 0 {
		e += 255
	}
	return _exp[e]
}
