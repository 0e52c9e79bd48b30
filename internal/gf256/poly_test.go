package gf256

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestPolyVal(t *testing.T) {
	// p(x) = x^2 + 3x + 5 at x=2: 4 ^ Mul(3,2) ^ 5.
	p := []byte{1, 3, 5}
	want := Mul(2, 2) ^ Mul(3, 2) ^ 5
	if got := PolyVal(p, 2); got != want {
		t.Fatalf("PolyVal=%#x, want %#x", got, want)
	}
}

func TestPolyValAscendingMatchesDescending(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(10)
		p := make([]byte, n)
		rng.Read(p)
		asc := make([]byte, n)
		for i := range p {
			asc[i] = p[n-1-i]
		}
		x := byte(rng.Intn(256))
		if PolyVal(p, x) != PolyValAscending(asc, x) {
			t.Fatalf("ascending/descending eval mismatch for %v at %#x", p, x)
		}
	}
}

func TestPolyMulIdentity(t *testing.T) {
	p := []byte{7, 0, 3, 1}
	got := PolyMul(p, []byte{1})
	if !bytes.Equal(got, p) {
		t.Fatalf("p*1 = %v, want %v", got, p)
	}
}

func TestPolyMulDegree(t *testing.T) {
	a := []byte{1, 1}    // x + 1
	b := []byte{1, 0, 1} // x^2 + 1
	got := PolyMul(a, b) // x^3 + x^2 + x + 1
	want := []byte{1, 1, 1, 1}
	if !bytes.Equal(got, want) {
		t.Fatalf("PolyMul=%v, want %v", got, want)
	}
}

func TestPolyMulEmpty(t *testing.T) {
	if PolyMul(nil, []byte{1}) != nil {
		t.Fatal("PolyMul with empty operand should be nil")
	}
}
