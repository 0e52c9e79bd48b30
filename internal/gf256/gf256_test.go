package gf256

import (
	"testing"
	"testing/quick"
)

func TestAddIsXOR(t *testing.T) {
	if got := Add(0x53, 0xCA); got != 0x53^0xCA {
		t.Fatalf("Add(0x53,0xCA)=%#x, want %#x", got, 0x53^0xCA)
	}
}

// slowMul is an independent bit-by-bit carryless multiply mod Poly used as
// a reference implementation.
func slowMul(a, b byte) byte {
	var p int
	x, y := int(a), int(b)
	for i := 0; i < 8; i++ {
		if y&1 != 0 {
			p ^= x
		}
		y >>= 1
		x <<= 1
		if x&0x100 != 0 {
			x ^= Poly
		}
	}
	return byte(p)
}

func TestMulKnownValues(t *testing.T) {
	tests := []struct {
		a, b, want byte
	}{
		{0, 0, 0},
		{0, 7, 0},
		{1, 1, 1},
		{1, 0xFF, 0xFF},
		{2, 2, 4},
		{0x80, 2, 0x1D}, // wraps through the primitive polynomial
	}
	for _, tt := range tests {
		if got := Mul(tt.a, tt.b); got != tt.want {
			t.Errorf("Mul(%#x,%#x)=%#x, want %#x", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestMulMatchesSlowReference(t *testing.T) {
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			if got, want := Mul(byte(a), byte(b)), slowMul(byte(a), byte(b)); got != want {
				t.Fatalf("Mul(%#x,%#x)=%#x, want %#x", a, b, got, want)
			}
		}
	}
}

func TestGeneratorOrder(t *testing.T) {
	// α must generate all 255 non-zero elements.
	seen := make(map[byte]bool)
	x := byte(1)
	for i := 0; i < 255; i++ {
		if seen[x] {
			t.Fatalf("generator repeats at power %d", i)
		}
		seen[x] = true
		x = Mul(x, Generator)
	}
	if x != 1 {
		t.Fatalf("α^255 = %#x, want 1", x)
	}
}

func TestFieldAxiomsProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 2000}

	commutative := func(a, b byte) bool { return Mul(a, b) == Mul(b, a) }
	if err := quick.Check(commutative, cfg); err != nil {
		t.Errorf("multiplication not commutative: %v", err)
	}

	associative := func(a, b, c byte) bool {
		return Mul(Mul(a, b), c) == Mul(a, Mul(b, c))
	}
	if err := quick.Check(associative, cfg); err != nil {
		t.Errorf("multiplication not associative: %v", err)
	}

	distributive := func(a, b, c byte) bool {
		return Mul(a, Add(b, c)) == Add(Mul(a, b), Mul(a, c))
	}
	if err := quick.Check(distributive, cfg); err != nil {
		t.Errorf("multiplication not distributive over addition: %v", err)
	}

	inverse := func(a byte) bool {
		if a == 0 {
			return true
		}
		return Mul(a, Inv(a)) == 1
	}
	if err := quick.Check(inverse, cfg); err != nil {
		t.Errorf("multiplicative inverse broken: %v", err)
	}

	divRoundTrip := func(a, b byte) bool {
		if b == 0 {
			return true
		}
		return Mul(Div(a, b), b) == a
	}
	if err := quick.Check(divRoundTrip, cfg); err != nil {
		t.Errorf("division round trip broken: %v", err)
	}
}

func TestExpLog(t *testing.T) {
	for i := 1; i < 256; i++ {
		a := byte(i)
		if Exp(Log(a)) != a {
			t.Fatalf("Exp(Log(%#x)) != %#x", a, a)
		}
	}
	for n := -300; n <= 300; n++ {
		want := byte(1)
		k := n % 255
		if k < 0 {
			k += 255
		}
		for i := 0; i < k; i++ {
			want = Mul(want, Generator)
		}
		if got := Exp(n); got != want {
			t.Fatalf("Exp(%d)=%#x, want %#x", n, got, want)
		}
	}
}

func TestDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Div by zero did not panic")
		}
	}()
	Div(1, 0)
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) did not panic")
		}
	}()
	Inv(0)
}

func TestLogZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Log(0) did not panic")
		}
	}()
	Log(0)
}

func TestMulSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	MulSlice(1, []byte{1}, []byte{1, 2})
}
