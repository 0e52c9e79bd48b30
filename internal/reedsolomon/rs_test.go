package reedsolomon

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/gf256"
)

func TestNewRejectsBadShapes(t *testing.T) {
	tests := []struct{ n, k int }{
		{256, 223}, {255, 0}, {255, 255}, {10, 12}, {255, -1},
	}
	for _, tt := range tests {
		if _, err := New(tt.n, tt.k); err == nil {
			t.Errorf("New(%d,%d) should fail", tt.n, tt.k)
		}
	}
}

func TestEncodeLength(t *testing.T) {
	c := MustNew(255, 223)
	cw, err := c.Encode(make([]byte, 223))
	if err != nil {
		t.Fatal(err)
	}
	if len(cw) != 255 {
		t.Fatalf("codeword length %d, want 255", len(cw))
	}
	if c.T() != 16 {
		t.Fatalf("T=%d, want 16", c.T())
	}
}

func TestEncodeWrongLength(t *testing.T) {
	c := MustNew(255, 223)
	if _, err := c.Encode(make([]byte, 100)); !errors.Is(err, ErrWrongLength) {
		t.Fatalf("got %v, want ErrWrongLength", err)
	}
}

func TestEncodeSystematic(t *testing.T) {
	c := MustNew(255, 223)
	data := make([]byte, 223)
	for i := range data {
		data[i] = byte(i * 7)
	}
	cw, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cw[:223], data) {
		t.Fatal("code is not systematic")
	}
	if err := c.Verify(cw); err != nil {
		t.Fatalf("fresh codeword fails Verify: %v", err)
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	c := MustNew(255, 223)
	cw, _ := c.Encode(make([]byte, 223))
	cw[17] ^= 0x5A
	if err := c.Verify(cw); !errors.Is(err, ErrVerifyMismatch) {
		t.Fatalf("got %v, want ErrVerifyMismatch", err)
	}
}

func TestDecodeClean(t *testing.T) {
	c := MustNew(255, 223)
	data := randBytes(1, 223)
	cw, _ := c.Encode(data)
	got, err := c.Decode(cw, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("clean decode mismatch")
	}
}

func TestDecodeCorrectsErrors(t *testing.T) {
	c := MustNew(255, 223)
	rng := rand.New(rand.NewSource(42))
	for nErr := 1; nErr <= c.T(); nErr++ {
		data := randBytes(int64(nErr), 223)
		cw, _ := c.Encode(data)
		corrupted := make([]byte, len(cw))
		copy(corrupted, cw)
		for _, p := range rng.Perm(255)[:nErr] {
			corrupted[p] ^= byte(1 + rng.Intn(255))
		}
		got, err := c.Decode(corrupted, nil)
		if err != nil {
			t.Fatalf("nErr=%d: %v", nErr, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("nErr=%d: decode mismatch", nErr)
		}
	}
}

func TestDecodeCorrectsErasures(t *testing.T) {
	c := MustNew(255, 223)
	rng := rand.New(rand.NewSource(43))
	for nEra := 1; nEra <= c.N()-c.K(); nEra += 3 {
		data := randBytes(int64(nEra), 223)
		cw, _ := c.Encode(data)
		corrupted := make([]byte, len(cw))
		copy(corrupted, cw)
		positions := rng.Perm(255)[:nEra]
		for _, p := range positions {
			corrupted[p] ^= byte(1 + rng.Intn(255))
		}
		got, err := c.Decode(corrupted, positions)
		if err != nil {
			t.Fatalf("nEra=%d: %v", nEra, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("nEra=%d: decode mismatch", nEra)
		}
	}
}

func TestDecodeMixedErrorsAndErasures(t *testing.T) {
	// 2v + e <= n-k: v errors plus e erasures.
	c := MustNew(255, 223)
	rng := rand.New(rand.NewSource(44))
	cases := []struct{ v, e int }{{1, 30}, {5, 22}, {10, 12}, {15, 2}, {16, 0}, {0, 32}}
	for _, tc := range cases {
		data := randBytes(int64(tc.v*100+tc.e), 223)
		cw, _ := c.Encode(data)
		corrupted := make([]byte, len(cw))
		copy(corrupted, cw)
		perm := rng.Perm(255)
		erasures := perm[:tc.e]
		for _, p := range erasures {
			corrupted[p] ^= byte(1 + rng.Intn(255))
		}
		for _, p := range perm[tc.e : tc.e+tc.v] {
			corrupted[p] ^= byte(1 + rng.Intn(255))
		}
		got, err := c.Decode(corrupted, erasures)
		if err != nil {
			t.Fatalf("v=%d e=%d: %v", tc.v, tc.e, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("v=%d e=%d: decode mismatch", tc.v, tc.e)
		}
	}
}

func TestDecodeFailsBeyondCapacity(t *testing.T) {
	c := MustNew(255, 223)
	rng := rand.New(rand.NewSource(45))
	data := randBytes(46, 223)
	cw, _ := c.Encode(data)
	// 40 random errors: far beyond T=16. The decoder must either report
	// ErrTooManyErrors or (astronomically unlikely) decode to some other
	// codeword; it must never return the original data with no error.
	corrupted := make([]byte, len(cw))
	copy(corrupted, cw)
	for _, p := range rng.Perm(255)[:40] {
		corrupted[p] ^= byte(1 + rng.Intn(255))
	}
	got, err := c.Decode(corrupted, nil)
	if err == nil && bytes.Equal(got, data) {
		t.Fatal("decoder silently produced the original data from unrecoverable corruption")
	}
}

func TestDecodeTooManyErasures(t *testing.T) {
	c := MustNew(255, 223)
	cw, _ := c.Encode(make([]byte, 223))
	erasures := make([]int, 33)
	for i := range erasures {
		erasures[i] = i
	}
	if _, err := c.Decode(cw, erasures); !errors.Is(err, ErrTooManyErrors) {
		t.Fatalf("got %v, want ErrTooManyErrors", err)
	}
}

func TestDecodeBadErasurePosition(t *testing.T) {
	c := MustNew(255, 223)
	cw, _ := c.Encode(make([]byte, 223))
	if _, err := c.Decode(cw, []int{255}); !errors.Is(err, ErrBadErasurePos) {
		t.Fatalf("got %v, want ErrBadErasurePos", err)
	}
	if _, err := c.Decode(cw, []int{-1}); !errors.Is(err, ErrBadErasurePos) {
		t.Fatalf("got %v, want ErrBadErasurePos", err)
	}
}

// TestErasureLocatorRootsAreTheErasures pins what correct's shortcut past
// the Chien search rests on: the roots of Γ(x) = Π (1 - x·α^(n-1-p)) over
// distinct positions p are exactly those positions, so when Λ = 1 the
// search could only hand the list back; a repeated position leaves fewer
// roots than Γ's degree, which the search turns into ErrTooManyErrors.
func TestErasureLocatorRootsAreTheErasures(t *testing.T) {
	for _, s := range columnShapes {
		c := MustNew(s.n, s.k)
		rng := rand.New(rand.NewSource(int64(s.n + s.k)))
		for e := 0; e <= s.n-s.k; e++ {
			erasures := rng.Perm(s.n)[:e]
			gamma := []byte{1}
			for _, p := range erasures {
				gamma = mulAsc(gamma, []byte{1, gf256.Exp(s.n - 1 - p)})
			}
			got, err := c.chienSearch(gamma)
			if err != nil {
				t.Fatalf("(%d,%d) e=%d: %v", s.n, s.k, e, err)
			}
			slices.Sort(erasures)
			if !distinct(erasures) || !slices.Equal(got, erasures) {
				t.Fatalf("(%d,%d) e=%d: roots %v, erasures %v", s.n, s.k, e, got, erasures)
			}
			if e == 0 {
				continue
			}
			twice := append(erasures, erasures[0])
			gamma = mulAsc(gamma, []byte{1, gf256.Exp(s.n - 1 - erasures[0])})
			if _, err := c.chienSearch(gamma); distinct(twice) || !errors.Is(err, ErrTooManyErrors) {
				t.Fatalf("(%d,%d) e=%d repeated: distinct=%v err=%v", s.n, s.k, e, distinct(twice), err)
			}
		}
	}
}

func TestSmallCode(t *testing.T) {
	// RS(15, 11): t=2, exercises non-standard shapes.
	c := MustNew(15, 11)
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	cw, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	cw[0] ^= 0xFF
	cw[14] ^= 0x0F
	got, err := c.Decode(cw, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("small-code decode mismatch")
	}
}

func TestRoundTripProperty(t *testing.T) {
	c := MustNew(63, 47) // t=8, fast enough for quick
	rng := rand.New(rand.NewSource(99))
	f := func(seed int64, nErrRaw uint8) bool {
		nErr := int(nErrRaw) % (c.T() + 1)
		data := randBytes(seed, c.K())
		cw, err := c.Encode(data)
		if err != nil {
			return false
		}
		for _, p := range rng.Perm(c.N())[:nErr] {
			cw[p] ^= byte(1 + rng.Intn(255))
		}
		got, err := c.Decode(cw, nil)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func randBytes(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// Allocating forms of the repair path's helpers, which the tests above
// drive directly.

func mulAsc(a, b []byte) []byte { return polyMul(make([]byte, len(a)+len(b)-1), a, b) }

func (c *Code) chienSearch(locator []byte) ([]int, error) {
	return c.locatorRoots(make([]int, 0, c.n), locator)
}

func (c *Code) syndromesFromRemainder(r []byte) []byte {
	return c.syndromes(make([]byte, c.n-c.k), r)
}
