package prp

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// ErrBadDomain reports a permutation domain that is zero or too large.
var ErrBadDomain = errors.New("prp: domain size must be in [1, 2^62]")

// MaxDomain bounds supported domain sizes.
const MaxDomain = uint64(1) << 62

// Feistel is a Feistel network on Z_a × Z_a, a = ⌈√n⌉, combined with
// cycle walking to act on [0, n) (Black and Rogaway, "Ciphers with
// arbitrary finite domains", CT-RSA 2002). A position x is the pair
// (x div a, x mod a); round i maps (l, r) to (r, (l + F_i(r)) mod a),
// where F_i(r) is one AES block encryption of (i, r) under a key derived
// from the caller's key material, reduced mod a. The square a² overshoots
// n by less than 2a, so all but a 2/√n share of positions land inside the
// domain on the first pass. The POR encoder permutes every file block
// through this permutation, so the rounds are a throughput-critical path.
type Feistel struct {
	block  cipher.Block
	n      uint64
	a      uint64 // side of the square, 2 ≤ a ≤ 2^31
	rounds int

	// Round-function memoization: F_i depends only on (i, r) with r < a,
	// so for the domain sizes GeoProof actually permutes (a = 12 370 at the
	// paper's 153M-block scale) the whole round function fits in a small
	// table — rounds rows of a uint32s in one array, row i at [i·a, (i+1)·a)
	// — built once on first bulk use. tableMaxBytes caps the memory; larger
	// domains evaluate AES per round. The atomic pointer lets Index pick
	// the table up race-free once a concurrent IndexBatch has built it.
	tableOnce     sync.Once
	table         atomic.Pointer[[]uint32]
	tableMaxBytes uint64

	// kernel: IndexBatch runs whole 64-position blocks of the table path
	// through the AVX-512 kernel — the host has it (kernelMissing) and
	// a ≥ 64. Tests clear it to reach the portable four-lane loop.
	kernel bool
}

// NewFeistel builds a Feistel permutation over [0, n) with the given number
// of rounds (values below 4 are raised to 4, the Luby-Rackoff minimum for
// strong-PRP security).
func NewFeistel(key []byte, n uint64, rounds int) (*Feistel, error) {
	if n == 0 || n > MaxDomain {
		return nil, fmt.Errorf("%w: n=%d", ErrBadDomain, n)
	}
	if rounds < 4 {
		rounds = 4
	}
	// Derive an AES-128 round key from arbitrary-length key material.
	kd := sha256.Sum256(append([]byte("prp/feistel/"), key...))
	block, err := aes.NewCipher(kd[:16])
	if err != nil {
		return nil, fmt.Errorf("prp: round cipher: %w", err)
	}
	a := max(ceilSqrt(n), 2) // a one-point side would leave the rounds nothing to mix
	return &Feistel{
		block:         block,
		n:             n,
		a:             a,
		rounds:        rounds,
		tableMaxBytes: feistelTableMaxBytes,
		kernel:        kernelMissing == "" && a >= 64,
	}, nil
}

// ceilSqrt returns ⌈√n⌉ for n ≤ MaxDomain. The float64 root is only a
// first guess — near 2⁶² its 53-bit mantissa can put it one off either
// way — corrected in integers, where a² cannot overflow.
func ceilSqrt(n uint64) uint64 {
	a := uint64(math.Sqrt(float64(n)))
	for a*a > n {
		a--
	}
	for (a+1)*(a+1) <= n {
		a++
	}
	if a*a < n {
		a++
	}
	return a
}

// feistelTableMaxBytes bounds the memoized round table: 16 MiB covers
// a ≤ 2¹⁹ at 8 rounds, i.e. domains up to 2³⁸ blocks (4 TiB files at
// 16-byte blocks). Beyond that every round is an AES evaluation.
const feistelTableMaxBytes = 16 << 20

// roundTable returns the memoized round function, building it on first
// call, or nil when the domain is too large to tabulate. Entry i·a + r is
// roundFn(i, r) — the same value the AES evaluation gives, so every path
// produces the same permutation.
func (f *Feistel) roundTable() []uint32 {
	if uint64(f.rounds)*f.a*4 > f.tableMaxBytes {
		return nil
	}
	f.tableOnce.Do(func() {
		tab := make([]uint32, uint64(f.rounds)*f.a)
		var buf [aes.BlockSize]byte
		for i := 0; i < f.rounds; i++ {
			row := tab[uint64(i)*f.a : uint64(i+1)*f.a]
			for r := range row {
				row[r] = uint32(f.roundFn(&buf, i, uint64(r)))
			}
		}
		f.table.Store(&tab)
	})
	if p := f.table.Load(); p != nil {
		return *p
	}
	return nil
}

// roundFn is F_i(r): one AES evaluation over (round, half), reduced mod a.
// buf is the caller's scratch; it goes through the cipher.Block interface
// and so lives on the heap, which is why a pass shares one.
func (f *Feistel) roundFn(buf *[aes.BlockSize]byte, i int, r uint64) uint64 {
	binary.BigEndian.PutUint32(buf[:4], uint32(i))
	binary.BigEndian.PutUint64(buf[4:12], r)
	binary.BigEndian.PutUint32(buf[12:], 0)
	f.block.Encrypt(buf[:], buf[:])
	return binary.BigEndian.Uint64(buf[:8]) % f.a
}

// Index maps x to its permuted position. Cycle walking re-encrypts until
// the output lands inside the domain; summed over the whole domain the
// walks visit each of the fewer than 2a points of [n, a²) at most once.
func (f *Feistel) Index(x uint64) uint64 {
	if x >= f.n {
		panic(fmt.Sprintf("prp: index %d outside domain %d", x, f.n))
	}
	y := f.encryptOnce(x)
	for y >= f.n {
		y = f.encryptOnce(y)
	}
	return y
}

// IndexBatch fills dst[i] = Index(first + i) for every i: the bulk form
// the POR pipeline permutes a shard of consecutive file blocks with. When
// the round table is available (domains up to feistelTableMaxBytes worth
// of entries — every GeoProof file size in practice) each round is a
// single table lookup and no AES runs at all; whole 64-position blocks go
// through the AVX-512 kernel where the host has it (indexBlocks), the
// rest four positions side by side (indexBatchTable). Larger domains take
// Index per position. Output is identical on every path.
func (f *Feistel) IndexBatch(first uint64, dst []uint64) {
	if len(dst) == 0 {
		return
	}
	if first >= f.n || uint64(len(dst)) > f.n-first {
		panic(fmt.Sprintf("prp: index %d outside domain %d", max(first, f.n), f.n))
	}
	if tab := f.roundTable(); tab != nil {
		i := 0
		if f.kernel {
			i = f.indexBlocks(first, dst, tab)
		}
		f.indexBatchTable(first+uint64(i), dst[i:], tab)
		return
	}
	for i := range dst {
		dst[i] = f.Index(first + uint64(i))
	}
}

// indexBlocks runs dst's whole 64-position blocks through the kernel and
// returns how many positions it filled. The kernel steps its lanes from
// the block's first (l, r) with at most one carry into l, which a ≥ 64
// guarantees; from one block to the next the pair advances by 64 the same
// way, so a batch pays one divide. The table cap keeps a ≤ 2²⁰, so no
// lane's dword sum wraps. A block's returned mask names the lanes that
// landed in [n, a²); only those cycle-walk, in Go.
func (f *Feistel) indexBlocks(first uint64, dst []uint64, tab []uint32) int {
	a := uint32(f.a)
	l, r := uint32(first/f.a), uint32(first%f.a)
	i := 0
	for ; i+64 <= len(dst); i += 64 {
		walk := indexBlock64(&tab[0], a, f.rounds, l, r, f.n, (*[64]uint64)(dst[i:i+64]))
		for ; walk != 0; walk &= walk - 1 {
			y := &dst[i+bits.TrailingZeros64(walk)]
			for *y >= f.n {
				*y = f.encryptOnceTable(*y, tab)
			}
		}
		if r += 64; r >= a {
			l, r = l+1, r-a
		}
	}
	return i
}

// indexBatchTable is the portable table path: all of IndexBatch's
// positions on hosts without the kernel or when a < 64, and the ones past
// the kernel's last whole block otherwise. One position's
// rounds are a chain of dependent table loads (each look-up's index is the
// previous one's result), so a position at a time the core mostly waits on
// L1 latency; four consecutive positions carried through every round
// together are four independent chains the loads of which overlap. The
// pair (l, r) of a position is stepped from its predecessor's — r + 1,
// carrying into l at a — so no position pays a divide. The mod-a add is a
// subtract whose borrow masks the correction: as a data-dependent branch
// it would mispredict every other round. A lane whose output lands outside
// the domain cycle-walks on its own; the len(dst)%4 tail goes through one
// position at a time.
func (f *Feistel) indexBatchTable(first uint64, dst []uint64, tab []uint32) {
	a, a64, n := uint32(f.a), f.a, f.n
	l, r := uint32(first/a64), uint32(first%a64)
	step := func() (uint32, uint32) {
		l0, r0 := l, r
		if r++; r == a {
			l, r = l+1, 0
		}
		return l0, r0
	}
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		l0, r0 := step()
		l1, r1 := step()
		l2, r2 := step()
		l3, r3 := step()
		for row := tab; len(row) >= int(a); row = row[a:] {
			d0 := l0 + row[r0] - a
			d1 := l1 + row[r1] - a
			d2 := l2 + row[r2] - a
			d3 := l3 + row[r3] - a
			l0, r0 = r0, d0+a&uint32(int32(d0)>>31)
			l1, r1 = r1, d1+a&uint32(int32(d1)>>31)
			l2, r2 = r2, d2+a&uint32(int32(d2)>>31)
			l3, r3 = r3, d3+a&uint32(int32(d3)>>31)
		}
		y0, y1 := uint64(l0)*a64+uint64(r0), uint64(l1)*a64+uint64(r1)
		y2, y3 := uint64(l2)*a64+uint64(r2), uint64(l3)*a64+uint64(r3)
		for y0 >= n {
			y0 = f.encryptOnceTable(y0, tab)
		}
		for y1 >= n {
			y1 = f.encryptOnceTable(y1, tab)
		}
		for y2 >= n {
			y2 = f.encryptOnceTable(y2, tab)
		}
		for y3 >= n {
			y3 = f.encryptOnceTable(y3, tab)
		}
		dst[i], dst[i+1], dst[i+2], dst[i+3] = y0, y1, y2, y3
	}
	for ; i < len(dst); i++ {
		y := f.encryptOnceTable(first+uint64(i), tab)
		for y >= n {
			y = f.encryptOnceTable(y, tab)
		}
		dst[i] = y
	}
}

// encryptOnceTable is one pass of the rounds over the memoized table.
func (f *Feistel) encryptOnceTable(x uint64, tab []uint32) uint64 {
	a := uint32(f.a)
	l, r := uint32(x/f.a), uint32(x%f.a)
	for row := tab; len(row) >= int(a); row = row[a:] {
		d := l + row[r] - a
		l, r = r, d+a&uint32(int32(d)>>31)
	}
	return uint64(l)*f.a + uint64(r)
}

// encryptOnce is one pass of the rounds over [0, a²), through AES unless
// a bulk caller has already paid to build the table: a lone Index never
// triggers the build itself.
func (f *Feistel) encryptOnce(x uint64) uint64 {
	if p := f.table.Load(); p != nil {
		return f.encryptOnceTable(x, *p)
	}
	var buf [aes.BlockSize]byte
	l, r := x/f.a, x%f.a
	for i := 0; i < f.rounds; i++ {
		l, r = r, (l+f.roundFn(&buf, i, r))%f.a
	}
	return l*f.a + r
}
