package gf256

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

func randSlab(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// slabLens runs from the empty slice to well past any generator tail.
var slabLens = []int{0, 1, 7, 8, 9, 15, 16, 31, 64, 255, 1000}

func TestMulRowMatchesMul(t *testing.T) {
	for c := 0; c < 256; c++ {
		row := MulRow(byte(c))
		for x := 0; x < 256; x++ {
			if want := Mul(byte(c), byte(x)); row[x] != want {
				t.Fatalf("MulRow(%#x)[%#x]=%#x, want %#x", c, x, row[x], want)
			}
		}
	}
}

func TestMulSliceMatchesMul(t *testing.T) {
	for _, n := range slabLens {
		src := randSlab(int64(n)+1, n)
		for _, c := range []byte{0, 1, 2, 0x1B, 0x80, 0xFF} {
			dst := randSlab(int64(n)+2, n) // junk: MulSlice must overwrite
			MulSlice(c, dst, src)
			for i := range src {
				if want := Mul(c, src[i]); dst[i] != want {
					t.Fatalf("c=%#x n=%d: MulSlice[%d]=%#x, want %#x", c, n, i, dst[i], want)
				}
			}
		}
	}
}

func TestMulSliceInPlace(t *testing.T) {
	src := randSlab(3, 100)
	want := make([]byte, len(src))
	MulSlice(0x53, want, src)
	buf := append([]byte(nil), src...)
	MulSlice(0x53, buf, buf)
	if !bytes.Equal(buf, want) {
		t.Fatal("in-place MulSlice differs from out-of-place")
	}
}

// refReduce is textbook long division: cancel the leading coefficient by
// folding v·divisor into the next deg positions.
func refReduce(buf, divisor []byte, steps int) {
	for i := 0; i < steps; i++ {
		v := buf[i]
		if v == 0 {
			continue
		}
		for j := 1; j < len(divisor); j++ {
			buf[i+j] ^= Mul(v, divisor[j])
		}
	}
}

func TestReduceMatchesLongDivision(t *testing.T) {
	// Monic divisors of assorted degrees, including the 4-word fast path
	// (degree 25..32) and degrees that do not fill a whole word.
	for _, deg := range []int{1, 2, 4, 7, 8, 9, 16, 25, 26, 31, 32, 33, 40} {
		div := randSlab(int64(deg), deg+1)
		div[0] = 1
		r := NewReducer(div)
		if r.Degree() != deg {
			t.Fatalf("deg=%d: Degree=%d", deg, r.Degree())
		}
		for _, steps := range []int{1, 2, 13, 100, 223} {
			buf := randSlab(int64(steps)*7+int64(deg), r.Scratch(steps))
			want := append([]byte(nil), buf...)
			refReduce(want, div, steps)
			r.Reduce(buf, steps)
			if !bytes.Equal(buf[steps:steps+deg], want[steps:steps+deg]) {
				t.Fatalf("deg=%d steps=%d: remainder mismatch", deg, steps)
			}
		}
	}
}

func TestNewReducerRejectsNonMonic(t *testing.T) {
	for _, div := range [][]byte{nil, {1}, {2, 3, 4}, {0, 1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewReducer(%v) did not panic", div)
				}
			}()
			NewReducer(div)
		}()
	}
}

func TestReduceShortBufferPanics(t *testing.T) {
	r := NewReducer([]byte{1, 2, 3})
	defer func() {
		if recover() == nil {
			t.Fatal("short buffer did not panic")
		}
	}()
	r.Reduce(make([]byte, 5), 10)
}

// TestReduceColumnPairMatchesReduce pins the column kernel to Reduce on
// the gathered column: for every legal column pair of a strided buffer the
// two windows equal the remainder Reduce leaves after the same steps over
// that column followed by zeros, with nothing past Degree() bytes set and
// the source untouched.
func TestReduceColumnPairMatchesReduce(t *testing.T) {
	const k = 223
	for _, deg := range []int{25, 31, 32} {
		div := randSlab(int64(deg)+100, deg+1)
		div[0] = 1
		r := NewReducer(div)
		if !r.CanReduceColumnPair() {
			t.Fatalf("deg=%d: four-word reducer cannot pair columns", deg)
		}
		for _, stride := range []int{2, 3, 16, 17, 64} {
			for _, steps := range []int{0, 1, 2, k} {
				src := randSlab(int64(stride*1000+steps), steps*stride)
				snapshot := append([]byte(nil), src...)
				for col := 0; col+1 < stride; col++ {
					win := [2][32]byte{{0xAA}, {31: 0xBB}} // junk: must be overwritten
					r.ReduceColumnPair(&win, src, stride, col, steps)
					for c := 0; c < 2; c++ {
						buf := make([]byte, r.Scratch(steps))
						for i := 0; i < steps; i++ {
							buf[i] = src[i*stride+col+c]
						}
						r.Reduce(buf, steps)
						var want [32]byte
						copy(want[:], buf[steps:steps+deg])
						if win[c] != want {
							t.Fatalf("deg=%d stride=%d steps=%d col=%d: window %x, want %x", deg, stride, steps, col+c, win[c], want)
						}
					}
				}
				if !bytes.Equal(src, snapshot) {
					t.Fatalf("deg=%d stride=%d steps=%d: source modified", deg, stride, steps)
				}
			}
		}
	}
}

// wantPanic runs f and requires it to panic with exactly msg.
func wantPanic(t *testing.T, msg string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if got := recover(); got != msg {
			t.Fatalf("panic %q, want %q", got, msg)
		}
	}()
	f()
}

func TestReduceColumnPairPanics(t *testing.T) {
	div := randSlab(5, 33)
	div[0] = 1
	r := NewReducer(div)
	var win [2][32]byte
	src := make([]byte, 10*16)
	wantPanic(t, "gf256: ReduceColumnPair buffer 160 shorter than 11 rows of 16", func() {
		r.ReduceColumnPair(&win, src, 16, 0, 11)
	})
	wantPanic(t, "gf256: ReduceColumnPair buffer 160 shorter than -1 rows of 16", func() {
		r.ReduceColumnPair(&win, src, 16, 0, -1)
	})
	wantPanic(t, "gf256: ReduceColumnPair columns 15,16 outside stride 16", func() {
		r.ReduceColumnPair(&win, src, 16, 15, 10)
	})
	wantPanic(t, "gf256: ReduceColumnPair columns -1,0 outside stride 16", func() {
		r.ReduceColumnPair(&win, src, 16, -1, 10)
	})
	wantPanic(t, "gf256: ReduceColumnPair columns 0,1 outside stride 1", func() {
		r.ReduceColumnPair(&win, src, 1, 0, 10)
	})
	// Rows narrower or wider than four words have no pair kernel; the
	// method refuses rather than reading rows it does not have.
	for _, deg := range []int{4, 16, 24, 33} {
		div := randSlab(int64(deg), deg+1)
		div[0] = 1
		r := NewReducer(div)
		if r.CanReduceColumnPair() {
			t.Fatalf("deg=%d: CanReduceColumnPair", deg)
		}
		wantPanic(t, fmt.Sprintf("gf256: ReduceColumnPair needs four-word rows, divisor degree is %d", deg), func() {
			r.ReduceColumnPair(&win, src, 16, 0, 10)
		})
	}
}

// BenchmarkReduce255 measures one slab reduction of a 255-coefficient
// polynomial by a degree-32 monic divisor — the per-stripe cost of both
// Reed-Solomon parity generation and the clean-path parity check.
func BenchmarkReduce255(b *testing.B) {
	div := randSlab(9, 33)
	div[0] = 1
	r := NewReducer(div)
	buf := make([]byte, r.Scratch(223))
	src := randSlab(10, len(buf))
	b.SetBytes(255)
	for i := 0; i < b.N; i++ {
		copy(buf, src)
		r.Reduce(buf, 223)
	}
}

// BenchmarkReduceColumnPair measures the same degree-32 reduction run down
// the sixteen byte columns of a 223-block chunk where it lies, two columns
// per pass — the whole of a chunk's parity generation or clean check.
func BenchmarkReduceColumnPair(b *testing.B) {
	div := randSlab(9, 33)
	div[0] = 1
	r := NewReducer(div)
	src := randSlab(10, 223*16)
	var win [2][32]byte
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		for col := 0; col < 16; col += 2 {
			r.ReduceColumnPair(&win, src, 16, col, 223)
		}
	}
}
