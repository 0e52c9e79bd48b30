package reedsolomon

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// fuzzShapes bounds the geometries FuzzRSRoundTrip explores; small enough
// to keep each execution fast, varied enough to cover sub-word, exact-word
// and multi-word parity rows.
var fuzzShapes = []struct{ n, k int }{
	{255, 223}, {63, 47}, {31, 21}, {15, 11}, {20, 4}, {7, 3},
}

var fuzzCodes = func() []*Code {
	out := make([]*Code, len(fuzzShapes))
	for i, s := range fuzzShapes {
		out[i] = MustNew(s.n, s.k)
	}
	return out
}()

// FuzzRSRoundTrip checks the decoder's two contractual guarantees over
// random data, error and erasure patterns:
//
//  1. any damage within the guarantee 2·errors + erasures ≤ n-k decodes
//     back to the original data, and
//  2. corruption beyond T unmarked errors returns ErrTooManyErrors — the
//     decoder must never hand back wrong data as a success.
func FuzzRSRoundTrip(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(3), uint8(4))
	f.Add(int64(2), uint8(1), uint8(16), uint8(0))
	f.Add(int64(3), uint8(2), uint8(0), uint8(16))
	f.Add(int64(4), uint8(3), uint8(5), uint8(6))
	f.Add(int64(5), uint8(4), uint8(20), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, shape, rawErr, rawEra uint8) {
		c := fuzzCodes[int(shape)%len(fuzzCodes)]
		n, k := c.N(), c.K()
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, k)
		rng.Read(data)
		cw, err := c.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Verify(cw); err != nil {
			t.Fatalf("fresh codeword fails Verify: %v", err)
		}

		budget := n - k
		nEra := int(rawEra) % (budget + 1)
		nErr := 0
		if free := (budget - nEra) / 2; free > 0 {
			nErr = int(rawErr) % (free + 1)
		}
		perm := rng.Perm(n)
		corrupted := append([]byte(nil), cw...)
		erasures := perm[:nEra]
		for _, p := range erasures {
			// Erased positions may hold anything, including the original.
			rng.Read(corrupted[p : p+1])
		}
		for _, p := range perm[nEra : nEra+nErr] {
			corrupted[p] ^= byte(1 + rng.Intn(255))
		}
		got, err := c.Decode(corrupted, erasures)
		if err != nil {
			t.Fatalf("n=%d k=%d errors=%d erasures=%d: %v", n, k, nErr, nEra, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("n=%d k=%d errors=%d erasures=%d: decoded wrong data", n, k, nErr, nEra)
		}

		// Beyond-capacity damage: more than T unmarked errors leave the
		// received word more than T away from the original, so decoding
		// can never return the original data. For a random error pattern
		// the decoder almost always reports ErrTooManyErrors; with
		// probability ≈ 1/T! it may instead miscorrect to a *different*
		// valid codeword, which is information-theoretically unavoidable
		// for any bounded-distance decoder. For the paper's T=16 code
		// that probability is ~5e-14, so there the strict error is
		// asserted; for the small fuzz shapes only the "never wrong data
		// as a silent success" half of the contract is checkable.
		over := c.T() + 1 + rng.Intn(budget-c.T())
		corrupted = append(corrupted[:0], cw...)
		for _, p := range rng.Perm(n)[:over] {
			corrupted[p] ^= byte(1 + rng.Intn(255))
		}
		got, err = c.Decode(corrupted, nil)
		switch {
		case err == nil:
			if c.T() >= 16 {
				t.Fatalf("n=%d k=%d: %d errors (beyond T=%d) decoded without error", n, k, over, c.T())
			}
			if bytes.Equal(got, data) {
				t.Fatalf("n=%d k=%d: decoder returned the original data from %d > T errors", n, k, over)
			}
			if verr := c.Verify(corrupted); verr != nil {
				t.Fatalf("n=%d k=%d: beyond-capacity 'success' left an inconsistent word: %v", n, k, verr)
			}
		case !errors.Is(err, ErrTooManyErrors):
			t.Fatalf("n=%d k=%d: beyond-capacity decode gave unexpected error: %v", n, k, err)
		}
	})
}

// FuzzBlockCodeRoundTrip drives the chunk codec with the fuzzer's data,
// generator degree (1..32), k (from 1 up), block size (1..48), damaged
// blocks and erasure list (which may name clean blocks, miss damaged ones
// and repeat itself), on every column kernel the host runs: the GFNI
// kernel's chunk must equal the portable kernels' and, stripe by stripe,
// the byte-at-a-time encoder's. With v damaged blocks outside a list of e
// distinct positions, 2v + e ≤ n-k must decode back to the input. A list
// longer than n-k, or a repeated position in a damaged chunk, must fail
// with ErrTooManyErrors. Damage beyond 2v + e ≤ n-k can never decode to
// the input and fails the same way — except that a bounded-distance
// decoder may land on another codeword with probability ≈ 1/u!, u being
// the (n-k-e)/2 errors the unspent parity could still locate, so success
// with different bytes is tolerated there when u < 8. Every outcome, bytes
// or error, on every kernel, must also equal a per-stripe Code.Decode of
// the gathered codewords, so neither the kernel nor the per-chunk erasure
// solve can change a result.
func FuzzBlockCodeRoundTrip(f *testing.F) {
	// deg 31, k 222 is the paper's (255,223); 15, 238 is (255,239); 3, 10
	// is (15,11); 12, 29 is (43,30).
	f.Add([]byte("geoproof"), uint8(31), uint8(222), uint8(16), []byte{}, []byte{})
	f.Add([]byte{0}, uint8(31), uint8(222), uint8(17), []byte{3, 200}, []byte{3, 200})
	f.Add([]byte{1, 2, 3}, uint8(31), uint8(222), uint8(3), []byte{9}, []byte{9, 9})
	f.Add([]byte{7}, uint8(15), uint8(238), uint8(2), []byte{1, 2, 3, 4, 5, 6, 7, 8}, []byte{})
	f.Add([]byte{9}, uint8(3), uint8(10), uint8(31), []byte{0, 14}, []byte{14, 5})
	f.Add([]byte{5}, uint8(31), uint8(222), uint8(0), []byte{10, 20, 30}, []byte{10, 20})
	f.Add([]byte{3}, uint8(12), uint8(29), uint8(46), []byte{1, 40}, []byte{40})
	f.Add([]byte{8}, uint8(5), uint8(0), uint8(20), []byte{0, 3}, []byte{3})
	// The paper's code at its full erasure budget, and at 30 erasures
	// plus one unlisted error (2·1 + 30 = n-k).
	era := make([]byte, 32)
	for i := range era {
		era[i] = byte(7*i + 3)
	}
	f.Add([]byte{4, 2}, uint8(31), uint8(222), uint8(16), era[:20], era)
	f.Add([]byte{6}, uint8(31), uint8(222), uint8(17), append(era[:10:10], 250), era[:30])
	f.Fuzz(func(t *testing.T, seedData []byte, rawDeg, rawK, rawBS uint8, damage, hints []byte) {
		deg := 1 + int(rawDeg)%32
		k := 1 + int(rawK)%(255-deg)
		n, bs := k+deg, 1+int(rawBS)%48
		code := MustNew(n, k)
		paths := blockCodePaths(t, code, bs)
		data := make([]byte, k*bs)
		if len(seedData) > 0 {
			for i := range data {
				data[i] = seedData[i%len(seedData)] + byte(i/len(seedData))
			}
		}
		chunk, err := paths[0].bc.EncodeChunk(data)
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range paths[1:] {
			other, err := path.bc.EncodeChunk(data)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(other, chunk) {
				t.Fatalf("n=%d k=%d bs=%d: %s chunk differs from %s", n, k, bs, path.name, paths[0].name)
			}
		}
		stripe := make([]byte, k)
		for j := 0; j < bs; j++ {
			for b := range stripe {
				stripe[b] = data[b*bs+j]
			}
			want, err := code.encodeRef(stripe)
			if err != nil {
				t.Fatal(err)
			}
			for b, w := range want {
				if chunk[b*bs+j] != w {
					t.Fatalf("n=%d k=%d bs=%d: stripe %d block %d is %#x, byte-at-a-time encoder says %#x", n, k, bs, j, b, chunk[b*bs+j], w)
				}
			}
		}

		damaged := make(map[int]bool)
		for i, p := range damage {
			b := int(p) % n
			if damaged[b] {
				continue
			}
			damaged[b] = true
			for j := b * bs; j < (b+1)*bs; j++ {
				chunk[j] ^= byte(1 + (i+j)%255)
			}
		}
		list := make([]int, len(hints))
		hinted := make(map[int]bool)
		for i, p := range hints {
			list[i] = int(p) % n
			hinted[list[i]] = true
		}
		unknown := 0
		for b := range damaged {
			if !hinted[b] {
				unknown++
			}
		}
		dup := len(hinted) < len(list)
		mustFail := len(list) > n-k || dup && len(damaged) > 0
		within := !mustFail && (len(damaged) == 0 || 2*unknown+len(hinted) <= n-k)

		snapshot := append([]byte(nil), chunk...)
		for _, path := range paths {
			bc := path.bc
			got, err := bc.DecodeChunk(chunk, list)
			if !bytes.Equal(chunk, snapshot) {
				t.Fatalf("%s: DecodeChunk modified its input", path.name)
			}
			desc := fmt.Sprintf("%s n=%d k=%d bs=%d damaged=%d unknown=%d hints=%v", path.name, n, k, bs, len(damaged), unknown, list)
			switch {
			case err != nil && !errors.Is(err, ErrTooManyErrors):
				t.Fatalf("%s: unexpected error %v", desc, err)
			case within && err != nil:
				t.Fatalf("%s: %v", desc, err)
			case within && !bytes.Equal(got, data):
				t.Fatalf("%s: decoded wrong data", desc)
			case mustFail && err == nil:
				t.Fatalf("%s: decoded with an unusable erasure list", desc)
			case !within && err == nil && bytes.Equal(got, data):
				t.Fatalf("%s: decoded the input from beyond capacity", desc)
			case !within && err == nil && (n-k-len(hinted))/2 >= 8:
				t.Fatalf("%s: miscorrected beyond capacity", desc)
			}
			checkMatchesPerStripe(t, bc, chunk, list, desc)
		}
	})
}
