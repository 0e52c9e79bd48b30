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
	tooLong := make([]byte, 258) // degree 257: a row would pass maxWords
	tooLong[0] = 1
	for _, div := range [][]byte{nil, {1}, {2, 3, 4}, {0, 1, 2}, tooLong} {
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

// checkColumnPair runs ReduceColumnPair over every legal column pair of
// src and requires each window to equal textbook long division of the
// gathered column followed by zeros — nothing past Degree() bytes set —
// and Reduce on the same column to leave that remainder too, with the
// source untouched.
func checkColumnPair(t *testing.T, div, src []byte, stride, steps int) {
	t.Helper()
	r, deg := NewReducer(div), len(div)-1
	snapshot := append([]byte(nil), src...)
	for col := 0; col+1 < stride; col++ {
		win := [2][32]byte{{0xAA}, {31: 0xBB}} // junk: must be overwritten
		r.ReduceColumnPair(&win, src, stride, col, steps)
		for c := 0; c < 2; c++ {
			buf := make([]byte, r.Scratch(steps))
			for i := 0; i < steps; i++ {
				buf[i] = src[i*stride+col+c]
			}
			want := append([]byte(nil), buf...)
			refReduce(want, div, steps)
			var w [32]byte
			copy(w[:], want[steps:steps+deg])
			if win[c] != w {
				t.Fatalf("deg=%d stride=%d steps=%d col=%d: window %x, want %x", deg, stride, steps, col+c, win[c], w)
			}
			r.Reduce(buf, steps)
			if !bytes.Equal(buf[steps:steps+deg], w[:deg]) {
				t.Fatalf("deg=%d stride=%d steps=%d col=%d: Reduce left %x, want %x", deg, stride, steps, col+c, buf[steps:steps+deg], w[:deg])
			}
		}
	}
	if !bytes.Equal(src, snapshot) {
		t.Fatalf("deg=%d stride=%d steps=%d: source modified", deg, stride, steps)
	}
}

// kernelRuns reports whether this host runs the GFNI column kernel, and
// says in the test log what it lacks when it does not.
func kernelRuns(t testing.TB) bool {
	t.Helper()
	if m := KernelMissing(); m != "" {
		t.Logf("GFNI column kernel not run: host lacks %s", m)
		return false
	}
	return true
}

// checkColumns16 runs ReduceColumns16 over every group of up to 16
// columns of src that starts at each column — full groups, and the masked
// tails of every width — and requires each column's row of the remainder
// to equal textbook long division of the gathered column followed by
// zeros, with every byte past the degree and past the width zero and the
// source untouched. It does nothing where the kernel does not run.
func checkColumns16(t *testing.T, div, src []byte, stride, steps int) {
	t.Helper()
	r, deg := NewReducer(div), len(div)-1
	if !r.CanReduceColumns16() {
		return
	}
	want := make([][32]byte, stride)
	for c := range want {
		buf := make([]byte, steps+deg)
		for i := 0; i < steps; i++ {
			buf[i] = src[i*stride+c]
		}
		refReduce(buf, div, steps)
		copy(want[c][:], buf[steps:])
	}
	snapshot := append([]byte(nil), src...)
	for col := 0; col < stride; col++ {
		width := min(16, stride-col)
		rem := [32][16]byte{{0xAA}, {15: 0xBB}, 31: {7: 0xCC}} // junk: must be overwritten
		r.ReduceColumns16(&rem, src, stride, col, width, steps)
		for c := 0; c < 16; c++ {
			for b := 0; b < 32; b++ {
				w := byte(0)
				if c < width {
					w = want[col+c][b]
				}
				if rem[b][c] != w {
					t.Fatalf("deg=%d stride=%d steps=%d col=%d width=%d: rem[%d][%d]=%#x, want %#x", deg, stride, steps, col, width, b, c, rem[b][c], w)
				}
			}
		}
	}
	if !bytes.Equal(src, snapshot) {
		t.Fatalf("deg=%d stride=%d steps=%d: source modified", deg, stride, steps)
	}
}

// TestReduceColumnPairMatchesReduce pins the column kernels to
// byte-at-a-time long division. The slicing-by-4 kernels —
// ReduceColumnPair and the four-word Reduce — run for every four-word
// divisor degree, every step count up to 600 (so every steps%4 tail
// behind every number of four-step rounds) and strides 2..33, every
// column. The step sweep runs at narrow strides and the stride sweep at
// selected step counts, to keep the run short. The GFNI kernel, where the
// host runs it, takes every degree 1..32 at strides 1..48 (masked tails
// of every width, one to three groups) and the same step counts.
func TestReduceColumnPairMatchesReduce(t *testing.T) {
	if kernelRuns(t) {
		for deg := 1; deg <= 32; deg++ {
			div := randSlab(int64(deg)+200, deg+1)
			div[0] = 1
			if !NewReducer(div).CanReduceColumns16() {
				t.Fatalf("deg=%d: no column kernel", deg)
			}
			for stride := 1; stride <= 48; stride++ {
				for _, steps := range []int{0, 1, 2, 3, 41, 223} {
					checkColumns16(t, div, randSlab(int64(stride*1000+steps), steps*stride), stride, steps)
				}
			}
		}
	}
	for deg := 25; deg <= 32; deg++ {
		div := randSlab(int64(deg)+100, deg+1)
		div[0] = 1
		if !NewReducer(div).CanReduceColumnPair() {
			t.Fatalf("deg=%d: four-word reducer cannot pair columns", deg)
		}
		for steps := 0; steps <= 600; steps++ {
			stride := 2 + (steps+deg)%2
			checkColumnPair(t, div, randSlab(int64(stride*1000+steps), steps*stride), stride, steps)
		}
		for stride := 2; stride <= 33; stride++ {
			for _, steps := range []int{0, 1, 2, 3, 4, 5, 6, 7, 41} {
				checkColumnPair(t, div, randSlab(int64(stride*1000+steps), steps*stride), stride, steps)
			}
		}
	}
}

// FuzzReduceColumnPair drives the same comparisons with divisors of
// degree 1..32, strides 1..48, step counts and data from the fuzzer: the
// GFNI kernel where the host runs it, and the slicing-by-4 pair kernel and
// Reduce for four-word divisors, each against byte-at-a-time division.
func FuzzReduceColumnPair(f *testing.F) {
	f.Add(uint8(31), uint8(15), uint16(223), int64(1))
	f.Add(uint8(24), uint8(1), uint16(0), int64(2))
	f.Add(uint8(28), uint8(32), uint16(7), int64(3))
	f.Add(uint8(12), uint8(46), uint16(1), int64(4))
	f.Add(uint8(0), uint8(0), uint16(5), int64(5))
	kernelRuns(f)
	f.Fuzz(func(t *testing.T, deg, stride uint8, steps uint16, seed int64) {
		d := 1 + int(deg)%32
		s := 1 + int(stride)%48
		n := int(steps) % 601
		div := randSlab(seed, d+1)
		div[0] = 1
		src := randSlab(seed+1, n*s)
		checkColumns16(t, div, src, s, n)
		if d >= 25 && s >= 2 {
			checkColumnPair(t, div, src, s, n)
		}
	})
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
	if kernelRuns(t) {
		var rem [32][16]byte
		wantPanic(t, "gf256: ReduceColumns16 buffer 160 shorter than 11 rows of 16", func() {
			r.ReduceColumns16(&rem, src, 16, 0, 16, 11)
		})
		wantPanic(t, "gf256: ReduceColumns16 buffer 160 shorter than -1 rows of 16", func() {
			r.ReduceColumns16(&rem, src, 16, 0, 16, -1)
		})
		wantPanic(t, "gf256: ReduceColumns16 columns 1..16 outside stride 16", func() {
			r.ReduceColumns16(&rem, src, 16, 1, 16, 10)
		})
		wantPanic(t, "gf256: ReduceColumns16 columns -1..0 outside stride 16", func() {
			r.ReduceColumns16(&rem, src, 16, -1, 2, 10)
		})
		wantPanic(t, "gf256: ReduceColumns16 columns 0..-1 outside stride 16", func() {
			r.ReduceColumns16(&rem, src, 16, 0, 0, 10)
		})
		wantPanic(t, "gf256: ReduceColumns16 columns 0..16 outside stride 32", func() {
			r.ReduceColumns16(&rem, src, 32, 0, 17, 5)
		})
	}
	// A divisor of degree above 32 has no GFNI kernel, on any host.
	r33 := NewReducer(append([]byte{1}, randSlab(33, 33)...))
	if r33.CanReduceColumns16() {
		t.Fatal("deg=33: CanReduceColumns16")
	}
	wantPanic(t, fmt.Sprintf("gf256: ReduceColumns16 needs the GFNI kernel and a divisor of degree <= 32, divisor degree is 33, host lacks %q", KernelMissing()), func() {
		r33.ReduceColumns16(new([32][16]byte), src, 16, 0, 16, 10)
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

// BenchmarkReduceColumns16 is BenchmarkReduceColumnPair on the GFNI
// kernel: the chunk's sixteen columns in one pass.
func BenchmarkReduceColumns16(b *testing.B) {
	div := randSlab(9, 33)
	div[0] = 1
	r := NewReducer(div)
	if !r.CanReduceColumns16() {
		b.Skipf("GFNI column kernel not run: host lacks %s", KernelMissing())
	}
	src := randSlab(10, 223*16)
	var rem [32][16]byte
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		r.ReduceColumns16(&rem, src, 16, 0, 16, 223)
	}
}
