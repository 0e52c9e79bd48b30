package prp

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func testKey() []byte { return []byte("geoproof-prp-test-key-0123456789") }

func newFeistel(t testing.TB, n uint64) *Feistel {
	t.Helper()
	f, err := NewFeistel(testKey(), n, 8)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// newTablelessFeistel is the reference twin: with the table cap forced to
// zero every path of it — Index, Inverse and IndexBatch, which then loops
// Index — evaluates AES per round.
func newTablelessFeistel(t testing.TB, n uint64) *Feistel {
	t.Helper()
	f := newFeistel(t, n)
	f.tableMaxBytes = 0
	return f
}

// squaresAround returns k² − 1, k² and k² + 1 for every k: the domain
// sizes at which a = ⌈√n⌉ steps and the excess a² − n swings from one
// through nothing to its maximum.
func squaresAround(ks ...uint64) []uint64 {
	var ns []uint64
	for _, k := range ks {
		ns = append(ns, k*k-1, k*k, k*k+1)
	}
	return ns
}

// TestBijectivitySmallDomains checks, on the shipped (table, four-lane)
// path, that the permutation of every domain size from 1 to 4 096 — and of
// the sizes around 1 549² (a 32 MiB file's block count sits just under it)
// and 2 048² — hits every point of the domain exactly once, and that Index
// and Inverse agree with the batch: on every point of the smaller domains
// and of every 64th size, on a sample elsewhere.
func TestBijectivitySmallDomains(t *testing.T) {
	ns := squaresAround(1549, 2048)
	for n := uint64(1); n <= 4096; n++ {
		ns = append(ns, n)
	}
	rng := rand.New(rand.NewSource(20))
	var ys []uint64
	var seen []bool
	for _, n := range ns {
		f := newFeistel(t, n)
		if f.a*f.a < n || (f.a > 2 && (f.a-1)*(f.a-1) >= n) {
			t.Fatalf("n=%d: side a=%d is not ⌈√n⌉", n, f.a)
		}
		if uint64(cap(ys)) < n {
			ys, seen = make([]uint64, n), make([]bool, n)
		}
		ys, seen = ys[:n], seen[:n]
		for i := range seen {
			seen[i] = false
		}
		f.IndexBatch(0, ys)
		for x, y := range ys {
			if y >= n {
				t.Fatalf("n=%d: Index(%d)=%d outside domain", n, x, y)
			}
			if seen[y] {
				t.Fatalf("n=%d: collision at output %d", n, y)
			}
			seen[y] = true
		}
		check := func(x uint64) {
			if got := f.Index(x); got != ys[x] {
				t.Fatalf("n=%d: Index(%d)=%d, IndexBatch gave %d", n, x, got, ys[x])
			}
			if got := f.Inverse(ys[x]); got != x {
				t.Fatalf("n=%d: Inverse(Index(%d))=%d", n, x, got)
			}
		}
		if n <= 512 || n%64 == 0 {
			for x := uint64(0); x < n; x++ {
				check(x)
			}
		} else {
			for i := 0; i < 32; i++ {
				check(rng.Uint64() % n)
			}
		}
	}
}

// TestInverseRoundTrip runs both compositions over whole small domains on
// a Feistel no batch has touched, i.e. on the table-less AES path.
func TestInverseRoundTrip(t *testing.T) {
	for _, n := range []uint64{1, 2, 7, 64, 65, 1023} {
		p := newFeistel(t, n)
		for x := uint64(0); x < n; x++ {
			if got := p.Inverse(p.Index(x)); got != x {
				t.Fatalf("n=%d: Inverse(Index(%d))=%d", n, x, got)
			}
			if got := p.Index(p.Inverse(x)); got != x {
				t.Fatalf("n=%d: Index(Inverse(%d))=%d", n, x, got)
			}
		}
		if p.table.Load() != nil {
			t.Fatalf("n=%d: a lone Index built the round table", n)
		}
	}
}

func TestInverseRoundTripPropertyLargeDomain(t *testing.T) {
	const n = uint64(153008209) // ECC'd block count from the paper's example
	p := newFeistel(t, n)
	f := func(raw uint64) bool {
		x := raw % n
		return p.Inverse(p.Index(x)) == x
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
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
	p := newFeistel(t, n)
	var counts [4]int
	for x := uint64(0); x < n; x++ {
		counts[p.Index(x)/(n/4)]++
	}
	for q, c := range counts {
		if c < n/4-n/20 || c > n/4+n/20 {
			t.Fatalf("quarter %d has %d of %d outputs", q, c, n)
		}
	}
}

func TestBadDomains(t *testing.T) {
	if _, err := NewFeistel(testKey(), 0, 8); !errors.Is(err, ErrBadDomain) {
		t.Fatalf("Feistel n=0: %v", err)
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

// TestCeilSqrt pins the integer correction of the float root where the
// float is least trustworthy: either side of perfect squares from 1 up to
// the largest the domain bound admits, and at the bound itself.
func TestCeilSqrt(t *testing.T) {
	ns := []uint64{1, 2, 3, 4, 5, MaxDomain - 1, MaxDomain, 1<<53 - 1, 1 << 53, 1<<53 + 1}
	for _, k := range []uint64{2, 3, 1549, 1 << 16, 1<<26 + 1, 94906265, 94906266, 94906267, 1<<31 - 1, 1 << 31} {
		ns = append(ns, k*k-1, k*k)
		if k*k < MaxDomain {
			ns = append(ns, k*k+1)
		}
	}
	for _, n := range ns {
		a := ceilSqrt(n)
		if a*a < n || (a-1)*(a-1) >= n {
			t.Errorf("ceilSqrt(%d)=%d: want (a−1)² < n ≤ a²", n, a)
		}
	}
}

// TestIndexBatchMatchesIndexLargeDomain runs the four-lane table path at
// the paper's 153M-block scale against the table-less twin.
func TestIndexBatchMatchesIndexLargeDomain(t *testing.T) {
	const n = uint64(153008209)
	f, plain := newFeistel(t, n), newTablelessFeistel(t, n)
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 4; trial++ {
		count := uint64(1 + rng.Intn(300))
		first := rng.Uint64() % (n - count)
		dst := make([]uint64, count)
		f.IndexBatch(first, dst)
		for i, got := range dst {
			if want := plain.Index(first + uint64(i)); got != want {
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
// (so the lane groups and the scalar tail both run at every phase) from
// every starting position of the domain — so every lane in turn steps
// across every r == a − 1 carry, and batches end on the last position of
// the domain — on domains one past a perfect square (the excess a² − n at
// its largest, so the most walking there can be), on a perfect square
// (none) and too small to fill a group. The reference is a twin that never
// builds the table, so it is the pure-AES Index. The sweep must have made
// every lane and the tail cycle-walk.
func TestIndexBatchLanes(t *testing.T) {
	var walked [5]bool // lanes 0–3, then the scalar tail
	for _, n := range []uint64{1, 2, 3, 5, 17, 37, 64, 32*32 + 1} {
		tabbed, plain := newFeistel(t, n), newTablelessFeistel(t, n)
		want := make([]uint64, n)
		firstPassOut := make([]bool, n)
		for x := range want {
			want[x] = plain.Index(uint64(x))
			firstPassOut[x] = plain.encryptOnce(uint64(x)) >= n
		}
		got := make([]uint64, n)
		for _, count := range []uint64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 127, 128, 129, 511, 513} {
			for first := uint64(0); first+count <= n; first++ {
				tabbed.IndexBatch(first, got[:count])
				for i := uint64(0); i < count; i++ {
					if got[i] != want[first+i] {
						t.Fatalf("n=%d first=%d len=%d: IndexBatch[%d]=%d, Index=%d", n, first, count, i, got[i], want[first+i])
					}
					if firstPassOut[first+i] {
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

// TestFeistelTablePathMatchesAESPath pins the memoized-round-table paths —
// the four-lane IndexBatch, and Index and Inverse once the table exists —
// to the table-less twin on sampled spans of domains from two points to
// 2⁴⁰ (the last at four rounds: eight would put its table over the cap).
func TestFeistelTablePathMatchesAESPath(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, tc := range []struct {
		n      uint64
		rounds int
	}{
		{2, 8}, {3, 8}, {1000, 8}, {2398275, 8}, {153008209, 8}, {1<<32 + 12345, 8}, {1 << 40, 4},
	} {
		tabbed, err := NewFeistel(testKey(), tc.n, tc.rounds)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := NewFeistel(testKey(), tc.n, tc.rounds)
		if err != nil {
			t.Fatal(err)
		}
		plain.tableMaxBytes = 0
		for trial := 0; trial < 3; trial++ {
			count := min(uint64(1+rng.Intn(400)), tc.n)
			first := rng.Uint64() % (tc.n - count + 1)
			viaTable := make([]uint64, count)
			tabbed.IndexBatch(first, viaTable)
			for i, got := range viaTable {
				x := first + uint64(i)
				if want := plain.Index(x); got != want || tabbed.Index(x) != want {
					t.Fatalf("n=%d: table IndexBatch[%d]=%d, table Index=%d, AES Index=%d", tc.n, i, got, tabbed.Index(x), want)
				}
				if back := tabbed.Inverse(got); back != x || plain.Inverse(got) != x {
					t.Fatalf("n=%d: table Inverse(%d)=%d, AES Inverse=%d, want %d", tc.n, got, back, plain.Inverse(got), x)
				}
			}
		}
		if tabbed.table.Load() == nil || plain.table.Load() != nil {
			t.Fatalf("n=%d: table built = %v on the table side, %v on the AES side", tc.n, tabbed.table.Load() != nil, plain.table.Load() != nil)
		}
	}
}

// TestFeistelLargeDomainSkipsTable: a domain too large to tabulate
// (a = 2²⁰ → a 32 MiB table at eight rounds) is served by Index.
func TestFeistelLargeDomainSkipsTable(t *testing.T) {
	const n = uint64(1) << 40
	f := newFeistel(t, n)
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
		if back := f.Inverse(got); back != first+uint64(i) {
			t.Fatalf("Inverse(%d)=%d, want %d", got, back, first+uint64(i))
		}
	}
}

func TestIndexBatchMatchesIndex(t *testing.T) {
	for _, n := range []uint64{1, 5, 97, 1000} {
		p := newFeistel(t, n)
		for _, span := range []struct{ first, count uint64 }{
			{0, n}, {n / 2, n - n/2}, {n - 1, 1}, {0, 0},
		} {
			dst := make([]uint64, span.count)
			p.IndexBatch(span.first, dst)
			for i, got := range dst {
				if want := p.Index(span.first + uint64(i)); got != want {
					t.Fatalf("n=%d: IndexBatch[%d]=%d, Index=%d", n, i, got, want)
				}
			}
		}
	}
}

// TestWalksPerIndex measures what the square domain buys: passes through
// the rounds per index, summed over a whole domain, stay within
// 1 + 3/√n — at one past a perfect square, where the excess is largest, as
// much as at a 32 MiB file's block count (a binary Feistel on the covering
// even power of two pays up to 4).
func TestWalksPerIndex(t *testing.T) {
	for _, n := range []uint64{1, 2, 3, 5, 10, 17, 1000, 1548*1548 + 1, 2398275} {
		f := newFeistel(t, n)
		f.roundTable()
		var passes uint64
		for x := uint64(0); x < n; x++ {
			y := f.encryptOnce(x)
			passes++
			for y >= n {
				y = f.encryptOnce(y)
				passes++
			}
		}
		if got, bound := float64(passes)/float64(n), 1+3/math.Sqrt(float64(n)); got > bound {
			t.Errorf("n=%d: %.4f passes per index, bound %.4f", n, got, bound)
		}
	}
}

// FuzzFeistelBijection: for any key and domain size, a batch anywhere in
// the domain lands inside it without collision, agrees with the
// table-less twin, and inverts; domains small enough to enumerate are
// checked whole. The table cap is lowered to 1 MiB so that a fuzz
// execution never spends its time filling a 16 MiB table; domains beyond
// it run table-less on both sides.
func FuzzFeistelBijection(f *testing.F) {
	f.Add([]byte("k"), uint64(1), uint64(0), uint16(1))
	f.Add([]byte("key"), uint64(17), uint64(9), uint16(8))
	f.Add([]byte{}, uint64(1549*1549), uint64(1549*1548-3), uint16(9))
	f.Add([]byte("geoproof"), uint64(2398275), uint64(2398270), uint16(5))
	f.Add([]byte("big"), uint64(1)<<40, uint64(1)<<39, uint16(40))
	f.Add([]byte("max"), MaxDomain-1, MaxDomain-7, uint16(6))
	f.Fuzz(func(t *testing.T, key []byte, n, first uint64, length uint16) {
		n = n%MaxDomain + 1
		tabbed, err := NewFeistel(key, n, 8)
		if err != nil {
			t.Fatal(err)
		}
		tabbed.tableMaxBytes = 1 << 20
		plain, err := NewFeistel(key, n, 8)
		if err != nil {
			t.Fatal(err)
		}
		plain.tableMaxBytes = 0

		count := uint64(length % 64)
		if n <= 2048 {
			first, count = 0, n
		}
		count = min(count, n)
		first %= n - count + 1
		dst := make([]uint64, count)
		tabbed.IndexBatch(first, dst)
		seen := make(map[uint64]bool, count)
		for i, y := range dst {
			x := first + uint64(i)
			if y >= n || seen[y] {
				t.Fatalf("n=%d: Index(%d)=%d is outside the domain or a repeat", n, x, y)
			}
			seen[y] = true
			if want := plain.Index(x); y != want {
				t.Fatalf("n=%d: IndexBatch gives Index(%d)=%d, table-less Index %d", n, x, y, want)
			}
			if back := tabbed.Inverse(y); back != x {
				t.Fatalf("n=%d: Inverse(Index(%d))=%d", n, x, back)
			}
		}
	})
}
