package prp

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func testKey() []byte { return []byte("geoproof-prp-test-key-0123456789") }

func permutations(t *testing.T, n uint64) map[string]Permutation {
	t.Helper()
	f, err := NewFeistel(testKey(), n, 8)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSwapOrNot(testKey(), n, 0)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Permutation{"feistel": f, "swapornot": s}
}

func TestBijectivitySmallDomains(t *testing.T) {
	for _, n := range []uint64{1, 2, 3, 5, 16, 17, 100, 255, 256, 1000} {
		for name, p := range permutations(t, n) {
			seen := make(map[uint64]bool, n)
			for x := uint64(0); x < n; x++ {
				y := p.Index(x)
				if y >= n {
					t.Fatalf("%s n=%d: Index(%d)=%d outside domain", name, n, x, y)
				}
				if seen[y] {
					t.Fatalf("%s n=%d: collision at output %d", name, n, y)
				}
				seen[y] = true
			}
		}
	}
}

func TestInverseRoundTrip(t *testing.T) {
	for _, n := range []uint64{1, 7, 64, 1023} {
		for name, p := range permutations(t, n) {
			for x := uint64(0); x < n; x++ {
				if got := p.Inverse(p.Index(x)); got != x {
					t.Fatalf("%s n=%d: Inverse(Index(%d))=%d", name, n, x, got)
				}
				if got := p.Index(p.Inverse(x)); got != x {
					t.Fatalf("%s n=%d: Index(Inverse(%d))=%d", name, n, x, got)
				}
			}
		}
	}
}

func TestInverseRoundTripPropertyLargeDomain(t *testing.T) {
	const n = uint64(153008209) // ECC'd block count from the paper's example
	for name, p := range permutations(t, n) {
		f := func(raw uint64) bool {
			x := raw % n
			return p.Inverse(p.Index(x)) == x
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestDeterministicForKey(t *testing.T) {
	f1, _ := NewFeistel(testKey(), 1000, 8)
	f2, _ := NewFeistel(testKey(), 1000, 8)
	for x := uint64(0); x < 1000; x += 37 {
		if f1.Index(x) != f2.Index(x) {
			t.Fatal("same key produced different permutations")
		}
	}
}

func TestDifferentKeysDiffer(t *testing.T) {
	const n = 4096
	f1, _ := NewFeistel([]byte("key-one"), n, 8)
	f2, _ := NewFeistel([]byte("key-two"), n, 8)
	same := 0
	for x := uint64(0); x < n; x++ {
		if f1.Index(x) == f2.Index(x) {
			same++
		}
	}
	// Two random permutations agree on ~1 point on average; allow slack.
	if same > 20 {
		t.Fatalf("distinct keys agree on %d/%d points", same, n)
	}
}

func TestPermutationLooksUniform(t *testing.T) {
	// First-bucket occupancy test: map [0,n) through the PRP and count
	// how many land in each quarter; each quarter should get ~n/4.
	const n = 40000
	for name, p := range permutations(t, n) {
		var counts [4]int
		for x := uint64(0); x < n; x++ {
			counts[p.Index(x)/(n/4)]++
		}
		for q, c := range counts {
			if c < n/4-n/20 || c > n/4+n/20 {
				t.Fatalf("%s: quarter %d has %d of %d outputs", name, q, c, n)
			}
		}
	}
}

func TestBadDomains(t *testing.T) {
	if _, err := NewFeistel(testKey(), 0, 8); !errors.Is(err, ErrBadDomain) {
		t.Fatalf("Feistel n=0: %v", err)
	}
	if _, err := NewSwapOrNot(testKey(), 0, 0); !errors.Is(err, ErrBadDomain) {
		t.Fatalf("SwapOrNot n=0: %v", err)
	}
	if _, err := NewFeistel(testKey(), MaxDomain+1, 8); !errors.Is(err, ErrBadDomain) {
		t.Fatalf("Feistel too large: %v", err)
	}
}

func TestOutOfDomainPanics(t *testing.T) {
	p, _ := NewFeistel(testKey(), 10, 8)
	for _, f := range []func(){
		func() { p.Index(10) },
		func() { p.Inverse(10) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("out-of-domain access did not panic")
				}
			}()
			f()
		}()
	}
}

func TestFeistelMinimumRounds(t *testing.T) {
	p, err := NewFeistel(testKey(), 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.rounds < 4 {
		t.Fatalf("rounds=%d, want >=4", p.rounds)
	}
}

func TestKeyCopiedAtConstruction(t *testing.T) {
	key := []byte("mutable-key-material")
	p, _ := NewFeistel(key, 100, 8)
	before := p.Index(5)
	key[0] ^= 0xFF
	if p.Index(5) != before {
		t.Fatal("permutation changed when caller mutated the key slice")
	}
}

// TestHMACPRFMatchesReference pins the precomputed-state PRF bit-identical
// to the hmac.New-per-call reference across key lengths (shorter than,
// equal to and beyond the SHA-256 block size) and arbitrary inputs.
func TestHMACPRFMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, keyLen := range []int{0, 1, 16, 32, 63, 64, 65, 200} {
		key := make([]byte, keyLen)
		rng.Read(key)
		p := newHMACPRF(key)
		for trial := 0; trial < 50; trial++ {
			label := byte(rng.Intn(256))
			round := rng.Uint32()
			x := rng.Uint64()
			if got, want := p.sum64(label, round, x), prf(key, label, round, x); got != want {
				t.Fatalf("keyLen=%d label=%#x round=%d x=%d: sum64=%#x, reference prf=%#x", keyLen, label, round, x, got, want)
			}
		}
	}
}

// TestIndexBatchMatchesIndexLargeDomain exercises the tiled batch path
// with cycle walking at the paper's 153M-block scale, where the covering
// power of two leaves ~43% of outputs walking at least once.
func TestIndexBatchMatchesIndexLargeDomain(t *testing.T) {
	const n = uint64(153008209)
	f, err := NewFeistel(testKey(), n, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 4; trial++ {
		count := uint64(1 + rng.Intn(300)) // spans partial, single and multi tile
		first := rng.Uint64() % (n - count)
		dst := make([]uint64, count)
		f.IndexBatch(first, dst)
		for i, got := range dst {
			if want := f.Index(first + uint64(i)); got != want {
				t.Fatalf("trial %d: IndexBatch[%d]=%d, Index=%d", trial, i, got, want)
			}
		}
	}
}

func TestIndexBatchOutOfDomainPanics(t *testing.T) {
	f, _ := NewFeistel(testKey(), 10, 8)
	defer func() {
		if got, want := recover(), "prp: index 10 outside domain 10"; got != want {
			t.Fatalf("out-of-domain batch: panic %v, want %q", got, want)
		}
	}()
	f.IndexBatch(5, make([]uint64, 6))
}

// TestIndexBatchLanes pins the four-lane table path to Index position by
// position: every batch length from 0 to 9 and around multiples of four
// (so the lane groups and the scalar tail both run at every phase), at
// the start, one past the start and the very end of the domain, on
// domains just under a power of four (almost no walking), just over half
// of one (about half the outputs walk) and too small to fill a group. The
// reference is a twin that never builds the table, so it is the pure-AES
// Index; the twin's own IndexBatch covers the AES tile path on the same
// spans. The sweep must have made every lane and the tail cycle-walk.
func TestIndexBatchLanes(t *testing.T) {
	var walked [5]bool // lanes 0–3, then the scalar tail
	for _, n := range []uint64{1<<6 - 1, 1<<5 + 1, 1<<10 - 1, 1<<9 + 1, 5, 17} {
		tabbed, err := NewFeistel(testKey(), n, 8)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := NewFeistel(testKey(), n, 8)
		if err != nil {
			t.Fatal(err)
		}
		plain.tableMaxByte = 0
		want := make([]uint64, n)
		for x := range want {
			want[x] = plain.Index(uint64(x))
		}
		for _, count := range []uint64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 127, 128, 129, 511, 513} {
			if count > n {
				continue
			}
			for _, first := range []uint64{0, 1, n - count} {
				if first+count > n {
					continue
				}
				viaTable := make([]uint64, count)
				tabbed.IndexBatch(first, viaTable)
				viaAES := make([]uint64, count)
				plain.IndexBatch(first, viaAES)
				for i := uint64(0); i < count; i++ {
					if viaTable[i] != want[first+i] || viaAES[i] != want[first+i] {
						t.Fatalf("n=%d first=%d len=%d: table IndexBatch[%d]=%d, AES IndexBatch=%d, Index=%d",
							n, first, count, i, viaTable[i], viaAES[i], want[first+i])
					}
					if plain.encryptOnce(first+i) >= n {
						if i < count&^3 {
							walked[i%4] = true
						} else {
							walked[4] = true
						}
					}
				}
			}
		}
		if tabbed.table.Load() == nil || plain.table.Load() != nil {
			t.Fatalf("n=%d: table built = %v on the table side, %v on the AES side", n, tabbed.table.Load() != nil, plain.table.Load() != nil)
		}
	}
	for where, did := range walked {
		if !did {
			t.Errorf("no batch of the sweep cycle-walked in lane %d (4 = tail)", where)
		}
	}
}

// TestFeistelTablePathMatchesAESPath pins the memoized-round-table fast
// path bit-identical to the pure-AES evaluation: a table-disabled twin
// (tableMaxByte = 0 forces the batched-AES tiles) and per-position Index
// calls taken BEFORE any batch ran (so they cannot have picked up a
// table) must agree with the table-driven IndexBatch everywhere,
// including cycle-walking outputs.
func TestFeistelTablePathMatchesAESPath(t *testing.T) {
	const n = uint64(153008209) // paper-scale domain, half = 14 → table eligible
	tabbed, err := NewFeistel(testKey(), n, 8)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewFeistel(testKey(), n, 8)
	if err != nil {
		t.Fatal(err)
	}
	plain.tableMaxByte = 0 // force the AES tile path forever

	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 3; trial++ {
		count := uint64(1 + rng.Intn(400))
		first := rng.Uint64() % (n - count)

		want := make([]uint64, count)
		for i := range want {
			want[i] = plain.Index(first + uint64(i)) // pure AES, no table built yet
		}
		viaAESBatch := make([]uint64, count)
		plain.IndexBatch(first, viaAESBatch)
		viaTable := make([]uint64, count)
		tabbed.IndexBatch(first, viaTable)
		for i := range want {
			if viaAESBatch[i] != want[i] {
				t.Fatalf("trial %d: AES IndexBatch[%d]=%d, Index=%d", trial, i, viaAESBatch[i], want[i])
			}
			if viaTable[i] != want[i] {
				t.Fatalf("trial %d: table IndexBatch[%d]=%d, AES Index=%d", trial, i, viaTable[i], want[i])
			}
			// Inverse must round-trip on the table path too.
			if got := tabbed.Inverse(want[i]); got != first+uint64(i) {
				t.Fatalf("trial %d: table Inverse(%d)=%d, want %d", trial, want[i], got, first+uint64(i))
			}
		}
	}
}

// TestFeistelLargeDomainSkipsTable exercises the AES fallback on a domain
// too large to tabulate (half = 20 → a 64 MiB table would be needed).
func TestFeistelLargeDomainSkipsTable(t *testing.T) {
	const n = uint64(1) << 40
	f, err := NewFeistel(testKey(), n, 8)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]uint64, 300)
	const first = uint64(987654321012)
	f.IndexBatch(first, dst)
	if f.table.Load() != nil {
		t.Fatal("table built for an oversized domain")
	}
	for i, got := range dst {
		if want := f.Index(first + uint64(i)); got != want {
			t.Fatalf("IndexBatch[%d]=%d, Index=%d", i, got, want)
		}
	}
}

func TestIndexBatchMatchesIndex(t *testing.T) {
	for _, n := range []uint64{1, 5, 97, 1000} {
		for name, p := range permutations(t, n) {
			for _, span := range []struct{ first, count uint64 }{
				{0, n}, {n / 2, n - n/2}, {n - 1, 1}, {0, 0},
			} {
				dst := make([]uint64, span.count)
				p.IndexBatch(span.first, dst)
				for i, got := range dst {
					if want := p.Index(span.first + uint64(i)); got != want {
						t.Fatalf("%s n=%d: IndexBatch[%d]=%d, Index=%d", name, n, i, got, want)
					}
				}
			}
		}
	}
}
