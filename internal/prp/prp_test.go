package prp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
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
// zero every path of it — Index, and IndexBatch, which then loops Index —
// evaluates AES per round.
func newTablelessFeistel(t testing.TB, n uint64) *Feistel {
	t.Helper()
	f := newFeistel(t, n)
	f.tableMaxBytes = 0
	return f
}

// feistelPath is one way IndexBatch's table path can run.
type feistelPath struct {
	name string
	f    *Feistel
}

// feistelPaths returns the table paths the batch tests run on, each a
// fresh Feistel under key over n: the AVX-512 kernel where NewFeistel
// chose it (the host has it and a ≥ 64), and the portable four-lane loop
// always — a second Feistel with the kernel cleared. Tests that call it log, through
// logKernel, what a host without the kernel lacks.
func feistelPaths(t testing.TB, key []byte, n uint64, rounds int) []feistelPath {
	t.Helper()
	kernel, err := NewFeistel(key, n, rounds)
	if err != nil {
		t.Fatal(err)
	}
	portable, err := NewFeistel(key, n, rounds)
	if err != nil {
		t.Fatal(err)
	}
	portable.kernel = false
	if !kernel.kernel {
		return []feistelPath{{"portable", portable}}
	}
	return []feistelPath{{"avx512", kernel}, {"portable", portable}}
}

func logKernel(t testing.TB) {
	t.Helper()
	if kernelMissing != "" {
		t.Logf("AVX-512 table kernel not run: host lacks %s", kernelMissing)
	}
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

// TestBijectivitySmallDomains checks, on every table path, that the
// permutation of every domain size from 1 to 4 096 — and of the sizes
// around 1 549² (a 32 MiB file's block count sits just under it) and
// 2 048² — hits every point of the domain exactly once, that the paths
// agree, and that Index agrees with the batch: on every point of the
// smaller domains and of every 64th size, on a sample elsewhere.
func TestBijectivitySmallDomains(t *testing.T) {
	logKernel(t)
	ns := squaresAround(1549, 2048)
	for n := uint64(1); n <= 4096; n++ {
		ns = append(ns, n)
	}
	rng := rand.New(rand.NewSource(20))
	var ys, first []uint64
	var seen []bool
	for _, n := range ns {
		paths := feistelPaths(t, testKey(), n, 8)
		if a := paths[0].f.a; a*a < n || (a > 2 && (a-1)*(a-1) >= n) {
			t.Fatalf("n=%d: side a=%d is not ⌈√n⌉", n, a)
		}
		if uint64(cap(ys)) < n {
			ys, first, seen = make([]uint64, n), make([]uint64, n), make([]bool, n)
		}
		ys, first, seen = ys[:n], first[:n], seen[:n]
		for pi, p := range paths {
			for i := range seen {
				seen[i] = false
			}
			p.f.IndexBatch(0, ys)
			for x, y := range ys {
				if y >= n {
					t.Fatalf("%s n=%d: Index(%d)=%d outside domain", p.name, n, x, y)
				}
				if seen[y] {
					t.Fatalf("%s n=%d: collision at output %d", p.name, n, y)
				}
				seen[y] = true
				if pi > 0 && y != first[x] {
					t.Fatalf("n=%d: %s gives Index(%d)=%d, %s %d", n, p.name, x, y, paths[0].name, first[x])
				}
			}
			if pi == 0 {
				copy(first, ys)
			}
		}
		f := paths[0].f
		check := func(x uint64) {
			if got := f.Index(x); got != ys[x] {
				t.Fatalf("n=%d: Index(%d)=%d, IndexBatch gave %d", n, x, got, ys[x])
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

// TestIndexBijectiveWithoutTable runs Index over whole small domains on a
// Feistel no batch has touched, i.e. on the table-less AES path: every
// output lies in the domain and none repeats, and a lone Index never
// builds the table.
func TestIndexBijectiveWithoutTable(t *testing.T) {
	for _, n := range []uint64{1, 2, 7, 64, 65, 1023} {
		p := newFeistel(t, n)
		seen := make([]bool, n)
		for x := uint64(0); x < n; x++ {
			y := p.Index(x)
			if y >= n || seen[y] {
				t.Fatalf("n=%d: Index(%d)=%d is outside the domain or a repeat", n, x, y)
			}
			seen[y] = true
		}
		if p.table.Load() != nil {
			t.Fatalf("n=%d: a lone Index built the round table", n)
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
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-domain access did not panic")
		}
	}()
	p.Index(10)
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

// TestIndexBatchMatchesIndexLargeDomain runs every table path at the
// paper's 153M-block scale, whose 396 KiB round table does not fit in L1,
// against the table-less twin: batches of up to a few thousand positions
// (so many whole kernel blocks) anywhere in the domain, and one that ends
// on its last position.
func TestIndexBatchMatchesIndexLargeDomain(t *testing.T) {
	logKernel(t)
	const n = uint64(153008209)
	plain := newTablelessFeistel(t, n)
	rng := rand.New(rand.NewSource(22))
	for _, p := range feistelPaths(t, testKey(), n, 8) {
		for trial := 0; trial < 6; trial++ {
			count := uint64(1 + rng.Intn(3000))
			first := rng.Uint64() % (n - count)
			if trial == 0 {
				first = n - count
			}
			dst := make([]uint64, count)
			p.f.IndexBatch(first, dst)
			for i, got := range dst {
				if want := plain.Index(first + uint64(i)); got != want {
					t.Fatalf("%s trial %d: IndexBatch(%d)[%d]=%d, Index=%d", p.name, trial, first, i, got, want)
				}
			}
		}
	}
}

// TestIndexBatchOutOfDomainPanics: a batch that runs past the domain
// panics naming the first position outside it — including one whose
// first + len wraps past 2⁶⁴ and so ends, modulo 2⁶⁴, inside the domain.
func TestIndexBatchOutOfDomainPanics(t *testing.T) {
	f, _ := NewFeistel(testKey(), 10, 8)
	for _, c := range []struct {
		first uint64
		count int
		want  uint64
	}{
		{5, 6, 10},
		{10, 1, 10},
		{11, 1, 11},
		{1<<64 - 1, 2, 1<<64 - 1},
		{1<<64 - 5, 10, 1<<64 - 5},
	} {
		func() {
			defer func() {
				if got, want := recover(), fmt.Sprintf("prp: index %d outside domain 10", c.want); got != want {
					t.Errorf("IndexBatch(%d, len %d): panic %v, want %q", c.first, c.count, got, want)
				}
			}()
			f.IndexBatch(c.first, make([]uint64, c.count))
		}()
	}
}

// TestIndexBatchLanes pins every table path to Index position by
// position. Batch lengths run from 0 to 9, around multiples of four (the
// four-lane groups and the scalar tail at every phase) and of 64 (the
// kernel's blocks and the four-lane remainder after them), and to 16 320,
// the pipeline's shard. The domains are one past a perfect square (the
// excess a² − n at its largest, so the most walking there can be), a
// perfect square (none) and too small to fill a group. Those up to
// 32² + 1 are swept from every starting position; the larger ones, at
// a = 63, 64 and 65 (the kernel runs from a = 64) and 131, from the a + 1
// starts at either end, which put a block's first r at every phase — so
// every lane of a kernel block in turn carries into l as it is set up —
// and end batches on the domain's last position. The reference is a twin that never builds the table, so
// it is the pure-AES Index. The sweep must have made the kernel's blocks,
// every portable lane and the scalar tail cycle-walk.
func TestIndexBatchLanes(t *testing.T) {
	logKernel(t)
	walked := map[string]bool{}
	for _, n := range []uint64{1, 2, 3, 5, 17, 37, 64, 32*32 + 1, 62*62 + 1, 63*63 + 1, 64 * 64, 64*64 + 1, 130*130 + 1} {
		plain := newTablelessFeistel(t, n)
		want := make([]uint64, n)
		firstPassOut := make([]bool, n)
		for x := range want {
			want[x] = plain.Index(uint64(x))
			firstPassOut[x] = plain.encryptOnce(uint64(x)) >= n
		}
		got := make([]uint64, n)
		for _, p := range feistelPaths(t, testKey(), n, 8) {
			a := p.f.a
			for _, count := range []uint64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 63, 64, 65, 127, 128, 129, 511, 513, 16320} {
				if count > n {
					continue
				}
				var starts []uint64
				for first := uint64(0); first+count <= n; first++ {
					if n <= 32*32+1 || first <= a || first+count+a >= n {
						starts = append(starts, first)
					}
				}
				blocks := uint64(0)
				if p.f.kernel {
					blocks = count &^ 63
				}
				lanes := blocks + (count-blocks)&^3
				for _, first := range starts {
					p.f.IndexBatch(first, got[:count])
					for i := uint64(0); i < count; i++ {
						if got[i] != want[first+i] {
							t.Fatalf("%s n=%d first=%d len=%d: IndexBatch[%d]=%d, Index=%d", p.name, n, first, count, i, got[i], want[first+i])
						}
						if !firstPassOut[first+i] {
							continue
						}
						switch {
						case i < blocks:
							walked["kernel block"] = true
						case i < lanes:
							walked[fmt.Sprintf("%s lane %d", p.name, (i-blocks)%4)] = true
						default:
							walked["scalar tail"] = true
						}
					}
				}
			}
			if p.f.table.Load() == nil || plain.table.Load() != nil {
				t.Fatalf("%s n=%d: table built = %v on the table side, %v on the AES side", p.name, n, p.f.table.Load() != nil, plain.table.Load() != nil)
			}
		}
	}
	where := []string{"portable lane 0", "portable lane 1", "portable lane 2", "portable lane 3", "scalar tail"}
	if kernelMissing == "" {
		where = append(where, "kernel block", "avx512 lane 0", "avx512 lane 3")
	}
	for _, w := range where {
		if !walked[w] {
			t.Errorf("no batch of the sweep cycle-walked in the %s", w)
		}
	}
}

// TestFeistelTablePathMatchesAESPath pins every table path — and Index
// once the table exists — to the table-less twin on sampled spans of
// domains from two points to 2⁴⁰ (the last at four rounds: eight would
// put its table over the cap). Past 2³² the side a exceeds 2¹⁶, so the
// kernel's l·a + r no longer fits the 32-bit lanes it is computed from.
func TestFeistelTablePathMatchesAESPath(t *testing.T) {
	logKernel(t)
	rng := rand.New(rand.NewSource(31))
	for _, tc := range []struct {
		n      uint64
		rounds int
	}{
		{2, 8}, {3, 8}, {1000, 8}, {2398275, 8}, {153008209, 8}, {1<<32 + 12345, 8}, {1 << 40, 4},
	} {
		plain, err := NewFeistel(testKey(), tc.n, tc.rounds)
		if err != nil {
			t.Fatal(err)
		}
		plain.tableMaxBytes = 0
		for _, p := range feistelPaths(t, testKey(), tc.n, tc.rounds) {
			for trial := 0; trial < 3; trial++ {
				count := min(uint64(1+rng.Intn(1000)), tc.n)
				first := rng.Uint64() % (tc.n - count + 1)
				viaTable := make([]uint64, count)
				p.f.IndexBatch(first, viaTable)
				for i, got := range viaTable {
					x := first + uint64(i)
					if want := plain.Index(x); got != want || p.f.Index(x) != want {
						t.Fatalf("%s n=%d: table IndexBatch[%d]=%d, table Index=%d, AES Index=%d", p.name, tc.n, i, got, p.f.Index(x), want)
					}
				}
			}
			if p.f.table.Load() == nil || plain.table.Load() != nil {
				t.Fatalf("%s n=%d: table built = %v on the table side, %v on the AES side", p.name, tc.n, p.f.table.Load() != nil, plain.table.Load() != nil)
			}
		}
	}
}

// TestFeistelLargeDomainSkipsTable: a domain too large to tabulate
// (a = 2²⁰ → a 32 MiB table at eight rounds) is served by Index, and the
// batch stays inside the domain without a repeat.
func TestFeistelLargeDomainSkipsTable(t *testing.T) {
	const n = uint64(1) << 40
	f := newFeistel(t, n)
	dst := make([]uint64, 300)
	const first = uint64(987654321012)
	f.IndexBatch(first, dst)
	if f.table.Load() != nil {
		t.Fatal("table built for an oversized domain")
	}
	seen := make(map[uint64]bool, len(dst))
	for i, got := range dst {
		if want := f.Index(first + uint64(i)); got != want {
			t.Fatalf("IndexBatch[%d]=%d, Index=%d", i, got, want)
		}
		if got >= n || seen[got] {
			t.Fatalf("IndexBatch[%d]=%d is outside the domain or a repeat", i, got)
		}
		seen[got] = true
	}
}

func TestIndexBatchMatchesIndex(t *testing.T) {
	logKernel(t)
	for _, n := range []uint64{1, 5, 97, 1000, 4097} {
		for _, p := range feistelPaths(t, testKey(), n, 8) {
			for _, span := range []struct{ first, count uint64 }{
				{0, n}, {n / 2, n - n/2}, {n - 1, 1}, {0, 0},
			} {
				dst := make([]uint64, span.count)
				p.f.IndexBatch(span.first, dst)
				for i, got := range dst {
					if want := p.f.Index(span.first + uint64(i)); got != want {
						t.Fatalf("%s n=%d: IndexBatch[%d]=%d, Index=%d", p.name, n, i, got, want)
					}
				}
			}
		}
	}
}

// TestFeistelSharedAcrossGoroutines shares one Feistel per table path
// between eight goroutines from its first use, so the round table is built
// under contention, each batching overlapping spans of ragged lengths;
// every batch must equal a sequential pass of a twin.
func TestFeistelSharedAcrossGoroutines(t *testing.T) {
	logKernel(t)
	const n, workers = uint64(1548*1548 + 1), 8
	for pi := range feistelPaths(t, testKey(), n, 8) {
		ref := feistelPaths(t, testKey(), n, 8)[pi]
		want := make([]uint64, n)
		ref.f.IndexBatch(0, want)
		shared := feistelPaths(t, testKey(), n, 8)[pi]
		var wg sync.WaitGroup
		errs := make(chan error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w)))
				dst := make([]uint64, 4096)
				for b := 0; b < 8; b++ {
					count := uint64(1 + rng.Intn(len(dst)))
					first := rng.Uint64() % (n - count + 1)
					shared.f.IndexBatch(first, dst[:count])
					for i, y := range dst[:count] {
						if y != want[first+uint64(i)] {
							errs <- fmt.Errorf("%s worker %d: IndexBatch(%d)[%d]=%d, sequential %d", shared.name, w, first, i, y, want[first+uint64(i)])
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	}
}

// TestIndexBatchAllocatesNothing: once the table exists, a batch on
// either table path allocates nothing — the kernel's lanes live in
// registers and the portable loop's on the stack.
func TestIndexBatchAllocatesNothing(t *testing.T) {
	logKernel(t)
	const n = uint64(1548*1548 + 1)
	dst := make([]uint64, 16320+37)
	for _, p := range feistelPaths(t, testKey(), n, 8) {
		p.f.IndexBatch(0, dst)
		first := uint64(0)
		if allocs := testing.AllocsPerRun(20, func() {
			p.f.IndexBatch(first, dst)
			first += 12345
		}); allocs != 0 {
			t.Errorf("%s: %v allocations per batch", p.name, allocs)
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
// the domain on every table path lands inside it without collision and
// agrees with the table-less twin; domains small enough to enumerate are
// checked whole. The table cap is lowered to 1 MiB so that a fuzz
// execution never spends its time filling a 16 MiB table; domains beyond
// it run table-less on every side.
func FuzzFeistelBijection(f *testing.F) {
	f.Add([]byte("k"), uint64(1), uint64(0), uint16(1))
	f.Add([]byte("key"), uint64(17), uint64(9), uint16(8))
	f.Add([]byte{}, uint64(1549*1549), uint64(1549*1548-3), uint16(9))
	f.Add([]byte("geoproof"), uint64(2398275), uint64(2398270), uint16(5))
	f.Add([]byte("big"), uint64(1)<<40, uint64(1)<<39, uint16(40))
	f.Add([]byte("max"), MaxDomain-1, MaxDomain-7, uint16(6))
	f.Add([]byte("blocks"), uint64(130*130+1), uint64(130*129), uint16(200))
	f.Fuzz(func(t *testing.T, key []byte, n, first uint64, length uint16) {
		n = n%MaxDomain + 1
		plain, err := NewFeistel(key, n, 8)
		if err != nil {
			t.Fatal(err)
		}
		plain.tableMaxBytes = 0

		count := uint64(length % 512)
		if n <= 2048 {
			first, count = 0, n
		}
		count = min(count, n)
		first %= n - count + 1
		dst := make([]uint64, count)
		seen := make(map[uint64]bool, count)
		for _, p := range feistelPaths(t, key, n, 8) {
			p.f.tableMaxBytes = 1 << 20
			p.f.IndexBatch(first, dst)
			clear(seen)
			for i, y := range dst {
				x := first + uint64(i)
				if y >= n || seen[y] {
					t.Fatalf("%s n=%d: Index(%d)=%d is outside the domain or a repeat", p.name, n, x, y)
				}
				seen[y] = true
				if want := plain.Index(x); y != want {
					t.Fatalf("%s n=%d: IndexBatch gives Index(%d)=%d, table-less Index %d", p.name, n, x, y, want)
				}
			}
		}
	})
}
