package prp

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"sync"
	"sync/atomic"

	"repro/internal/crypt"
)

// ErrBadDomain reports a permutation domain that is zero or too large.
var ErrBadDomain = errors.New("prp: domain size must be in [1, 2^62]")

// MaxDomain bounds supported domain sizes.
const MaxDomain = uint64(1) << 62

// Permutation is a keyed bijection on [0, Domain()).
type Permutation interface {
	// Domain returns the size n of the permuted set.
	Domain() uint64
	// Index maps a plaintext position to its permuted position.
	Index(x uint64) uint64
	// Inverse maps a permuted position back to the plaintext position.
	Inverse(y uint64) uint64
	// IndexBatch fills dst[i] = Index(first + i) for every i, the bulk
	// form used when permuting a contiguous run of file blocks: one
	// dynamic dispatch per shard instead of per block, and a natural
	// unit for the POR engine's worker pool to fan out.
	IndexBatch(first uint64, dst []uint64)
}

// prf computes a 64-bit pseudorandom function value over the given round
// and input, keyed with HMAC-SHA256. It is the reference implementation
// that hmacPRF is pinned against in the differential tests; the hot paths
// use hmacPRF, which produces bit-identical output.
func prf(key []byte, label byte, round uint32, x uint64) uint64 {
	mac := hmac.New(sha256.New, key)
	var buf [13]byte
	buf[0] = label
	binary.BigEndian.PutUint32(buf[1:5], round)
	binary.BigEndian.PutUint64(buf[5:13], x)
	mac.Write(buf[:])
	return binary.BigEndian.Uint64(mac.Sum(nil)[:8])
}

// hmacPRF evaluates the same HMAC-SHA256 PRF as prf but precomputes the
// keyed inner and outer digest states once at construction. Each call
// restores a state snapshot instead of building hmac.New(sha256.New, key)
// from scratch, which removes both the per-call key-block compressions
// (HMAC spends two of its four SHA-256 compressions re-absorbing the
// padded key) and the allocation churn of a fresh HMAC and two digests
// per round per element. A sync.Pool of scratch digests keeps it safe for
// concurrent use.
type hmacPRF struct {
	inner, outer []byte // marshaled SHA-256 states after absorbing ipad / opad
	pool         sync.Pool
}

type prfScratch struct {
	inner, outer hash.Hash
	buf          [sha256.Size]byte // inner digest output
	out          [sha256.Size]byte // outer digest output
}

func newHMACPRF(key []byte) *hmacPRF {
	const blockSize = 64 // SHA-256 block size, per RFC 2104
	if len(key) > blockSize {
		sum := sha256.Sum256(key)
		key = sum[:]
	}
	var pad [blockSize]byte
	marshal := func(x byte) []byte {
		for i := range pad {
			pad[i] = x
		}
		for i, b := range key {
			pad[i] ^= b
		}
		h := sha256.New()
		h.Write(pad[:])
		state, err := h.(encoding.BinaryMarshaler).MarshalBinary()
		if err != nil {
			panic(fmt.Sprintf("prp: marshal sha256 state: %v", err))
		}
		return state
	}
	p := &hmacPRF{inner: marshal(0x36), outer: marshal(0x5c)}
	p.pool.New = func() any {
		return &prfScratch{inner: sha256.New(), outer: sha256.New()}
	}
	return p
}

func (p *hmacPRF) sum64(label byte, round uint32, x uint64) uint64 {
	s := p.pool.Get().(*prfScratch)
	var msg [13]byte
	msg[0] = label
	binary.BigEndian.PutUint32(msg[1:5], round)
	binary.BigEndian.PutUint64(msg[5:13], x)
	if err := s.inner.(encoding.BinaryUnmarshaler).UnmarshalBinary(p.inner); err != nil {
		panic(fmt.Sprintf("prp: restore sha256 state: %v", err))
	}
	s.inner.Write(msg[:])
	isum := s.inner.Sum(s.buf[:0])
	if err := s.outer.(encoding.BinaryUnmarshaler).UnmarshalBinary(p.outer); err != nil {
		panic(fmt.Sprintf("prp: restore sha256 state: %v", err))
	}
	s.outer.Write(isum)
	osum := s.outer.Sum(s.out[:0])
	v := binary.BigEndian.Uint64(osum[:8])
	p.pool.Put(s)
	return v
}

// Feistel is a balanced Feistel network on 2w-bit values combined with
// cycle walking to act on [0, n). Its round function is one AES block
// encryption under a key derived from the caller's key material — the
// POR encoder permutes every file block through this permutation, so the
// round function is the throughput-critical path.
type Feistel struct {
	block  cipher.Block
	n      uint64
	half   uint // bits per half
	mask   uint64
	rounds int

	// Round-function memoization: the round input is only (round, r) with
	// r < 2^half, so for the domain sizes GeoProof actually permutes
	// (half = 14 at the paper's 153M-block scale) the entire round
	// function fits in a small table — rounds × 2^half masked uint64s,
	// built once through the crypt.EncryptBlocks ECB path on first bulk
	// use. tableMaxBytes caps the memory; larger domains keep the batched
	// AES path. The atomic pointer lets Index/Inverse pick the table up
	// race-free once a concurrent IndexBatch has built it.
	tableOnce    sync.Once
	table        atomic.Pointer[[][]uint64]
	tableMaxByte int
}

var _ Permutation = (*Feistel)(nil)

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
	bits := uint(1)
	for uint64(1)<<bits < n {
		bits++
	}
	if bits%2 == 1 {
		bits++
	}
	// Derive an AES-128 round key from arbitrary-length key material.
	kd := sha256.Sum256(append([]byte("prp/feistel/"), key...))
	block, err := aes.NewCipher(kd[:16])
	if err != nil {
		return nil, fmt.Errorf("prp: round cipher: %w", err)
	}
	return &Feistel{
		block:        block,
		n:            n,
		half:         bits / 2,
		mask:         (uint64(1) << (bits / 2)) - 1,
		rounds:       rounds,
		tableMaxByte: feistelTableMaxBytes,
	}, nil
}

// feistelTableMaxBytes bounds the memoized round table: 16 MiB covers
// half ≤ 17 at 8 rounds, i.e. domains up to 2^34 blocks (256 GiB files at
// 16-byte blocks). Beyond that the batched AES path is used instead.
const feistelTableMaxBytes = 16 << 20

// roundTable returns the memoized round function, building it on first
// call, or nil when the domain is too large to tabulate. Entry [i][x] is
// roundFn(i, x) & mask — bit-identical to the AES evaluation, so every
// path produces the same permutation. The build itself runs through the
// crypt.EncryptBlocks multi-block shim: all 2^half round inputs for one
// round are assembled tile by tile into contiguous buffers and encrypted
// back to back.
func (f *Feistel) roundTable() [][]uint64 {
	size := uint64(1) << f.half
	if bytes := uint64(f.rounds) * size * 8; bytes > uint64(f.tableMaxByte) {
		return nil
	}
	f.tableOnce.Do(func() {
		const tile = 256 // 4 KiB in/out buffers per EncryptBlocks call
		var in, out [tile * 16]byte
		tab := make([][]uint64, f.rounds)
		flat := make([]uint64, uint64(f.rounds)*size) // one backing array
		for i := range tab {
			row := flat[uint64(i)*size : uint64(i+1)*size]
			for base := uint64(0); base < size; base += tile {
				m := uint64(tile)
				if size-base < m {
					m = size - base
				}
				for j := uint64(0); j < m; j++ {
					binary.BigEndian.PutUint32(in[j*16:], uint32(i))
					binary.BigEndian.PutUint64(in[j*16+4:], base+j)
				}
				crypt.EncryptBlocks(f.block, out[:m*16], in[:m*16])
				for j := uint64(0); j < m; j++ {
					row[base+j] = binary.BigEndian.Uint64(out[j*16:]) & f.mask
				}
			}
			tab[i] = row
		}
		f.table.Store(&tab)
	})
	if p := f.table.Load(); p != nil {
		return *p
	}
	return nil
}

// roundFn is one AES evaluation over (round, half-block).
func (f *Feistel) roundFn(i uint32, x uint64) uint64 {
	var in, out [16]byte
	binary.BigEndian.PutUint32(in[:4], i)
	binary.BigEndian.PutUint64(in[4:12], x)
	f.block.Encrypt(out[:], in[:])
	return binary.BigEndian.Uint64(out[:8])
}

// Domain returns the permutation's domain size.
func (f *Feistel) Domain() uint64 { return f.n }

// Index maps x to its permuted position. Cycle walking re-encrypts until
// the output lands inside the domain; the expected number of walks is below
// 4 because the covering power of two is less than 4n.
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

// feistelTile is the number of positions IndexBatch pushes through the
// rounds together on the AES fallback path. Within a tile every round
// issues feistelTile independent AES block encryptions back to back
// through the crypt.EncryptBlocks shim, so AES-NI can pipeline them
// instead of stalling on one element's ten-round latency chain; 128
// keeps the whole scratch (two 2 KiB block buffers plus the half slices)
// in L1 and on the stack.
const feistelTile = 128

// IndexBatch maps the consecutive positions first..first+len(dst) in one
// call. When the round table is available (domains up to
// feistelTableMaxBytes worth of entries — every GeoProof file size in
// practice) each round is a single table lookup and no AES runs at all,
// and four positions go through the rounds side by side (indexBatchTable).
// Larger domains fall back to batching the Feistel rounds across a tile
// of positions: each round packs all in-flight round-function inputs
// into one contiguous buffer and encrypts them as independent AES blocks
// via crypt.EncryptBlocks. Elements whose output lands outside the
// domain cycle-walk together in progressively smaller batches until the
// tile drains. Output is identical to calling Index per position on
// either path.
func (f *Feistel) IndexBatch(first uint64, dst []uint64) {
	if len(dst) == 0 {
		return
	}
	if last := first + uint64(len(dst)) - 1; last >= f.n {
		x := first
		if x < f.n {
			x = f.n
		}
		panic(fmt.Sprintf("prp: index %d outside domain %d", x, f.n))
	}
	if tab := f.roundTable(); tab != nil {
		f.indexBatchTable(first, dst, tab)
		return
	}
	var l, r [feistelTile]uint64
	var idx [feistelTile]int
	var in, out [feistelTile * 16]byte
	for base := 0; base < len(dst); base += feistelTile {
		m := min(feistelTile, len(dst)-base)
		for i := 0; i < m; i++ {
			x := first + uint64(base+i)
			l[i] = (x >> f.half) & f.mask
			r[i] = x & f.mask
			idx[i] = base + i
		}
		for m > 0 {
			f.roundsBatch(l[:m], r[:m], in[:], out[:])
			// Deliver in-domain outputs; compact the stragglers to the
			// front of the tile and walk them through another pass.
			walkers := 0
			for i := 0; i < m; i++ {
				y := l[i]<<f.half | r[i]
				if y < f.n {
					dst[idx[i]] = y
					continue
				}
				l[walkers] = (y >> f.half) & f.mask
				r[walkers] = y & f.mask
				idx[walkers] = idx[i]
				walkers++
			}
			m = walkers
		}
	}
}

// indexBatchTable is IndexBatch over the memoised rounds. One position's
// rounds are a chain of dependent table loads (each look-up's index is the
// previous one's result), so a position at a time the core mostly waits on
// L1 latency; four consecutive positions carried through every round
// together are four independent chains the loads of which overlap. A lane
// whose output lands outside the domain cycle-walks on its own; the
// len(dst)%4 tail goes through one at a time.
func (f *Feistel) indexBatchTable(first uint64, dst []uint64, tab [][]uint64) {
	half, mask, n := f.half, f.mask, f.n
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		x := first + uint64(i)
		l0, r0 := (x>>half)&mask, x&mask
		l1, r1 := ((x+1)>>half)&mask, (x+1)&mask
		l2, r2 := ((x+2)>>half)&mask, (x+2)&mask
		l3, r3 := ((x+3)>>half)&mask, (x+3)&mask
		for _, row := range tab {
			l0, r0 = r0, l0^row[r0]
			l1, r1 = r1, l1^row[r1]
			l2, r2 = r2, l2^row[r2]
			l3, r3 = r3, l3^row[r3]
		}
		y0, y1, y2, y3 := l0<<half|r0, l1<<half|r1, l2<<half|r2, l3<<half|r3
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

// roundsBatch runs the full Feistel round schedule over a batch of
// (l, r) halves in struct-of-arrays form. Per round it packs every
// element's round-function input into `in`, encrypts the whole assembled
// buffer as independent blocks through the ECB-style shim, then folds
// the outputs into the halves — the same computation as encryptOnce,
// element-wise.
func (f *Feistel) roundsBatch(l, r []uint64, in, out []byte) {
	for i := 0; i < f.rounds; i++ {
		ri := uint32(i)
		for j := range r {
			binary.BigEndian.PutUint32(in[j*16:], ri)
			binary.BigEndian.PutUint64(in[j*16+4:], r[j])
		}
		crypt.EncryptBlocks(f.block, out[:len(r)*16], in[:len(r)*16])
		for j := range r {
			l[j], r[j] = r[j], l[j]^(binary.BigEndian.Uint64(out[j*16:j*16+8])&f.mask)
		}
	}
}

// encryptOnceTable is encryptOnce with every round folded through the
// memoized round table.
func (f *Feistel) encryptOnceTable(x uint64, tab [][]uint64) uint64 {
	l := (x >> f.half) & f.mask
	r := x & f.mask
	for _, row := range tab {
		l, r = r, l^row[r]
	}
	return l<<f.half | r
}

// Inverse maps a permuted position back to the original position.
func (f *Feistel) Inverse(y uint64) uint64 {
	if y >= f.n {
		panic(fmt.Sprintf("prp: index %d outside domain %d", y, f.n))
	}
	x := f.decryptOnce(y)
	for x >= f.n {
		x = f.decryptOnce(x)
	}
	return x
}

func (f *Feistel) encryptOnce(x uint64) uint64 {
	// Use the memoized rounds when some bulk caller already paid to build
	// them; a lone Index never triggers the build itself.
	if p := f.table.Load(); p != nil {
		return f.encryptOnceTable(x, *p)
	}
	l := (x >> f.half) & f.mask
	r := x & f.mask
	for i := 0; i < f.rounds; i++ {
		l, r = r, l^(f.roundFn(uint32(i), r)&f.mask)
	}
	return l<<f.half | r
}

func (f *Feistel) decryptOnce(y uint64) uint64 {
	if p := f.table.Load(); p != nil {
		tab := *p
		l := (y >> f.half) & f.mask
		r := y & f.mask
		for i := f.rounds - 1; i >= 0; i-- {
			l, r = r^tab[i][l], l
		}
		return l<<f.half | r
	}
	l := (y >> f.half) & f.mask
	r := y & f.mask
	for i := f.rounds - 1; i >= 0; i-- {
		l, r = r^(f.roundFn(uint32(i), l)&f.mask), l
	}
	return l<<f.half | r
}

// SwapOrNot is the Hoang-Morris-Rogaway swap-or-not shuffle acting
// directly on [0, n).
type SwapOrNot struct {
	key    []byte
	prf    *hmacPRF // keyed once; replaces per-round hmac.New churn
	n      uint64
	rounds int
	ks     []uint64 // per-round offsets in [0, n)
}

var _ Permutation = (*SwapOrNot)(nil)

// NewSwapOrNot builds a swap-or-not permutation over [0, n). For full
// security the construction wants Θ(log n) rounds; the constructor enforces
// a floor of 6·⌈log2 n⌉ + 6 when rounds is non-positive.
func NewSwapOrNot(key []byte, n uint64, rounds int) (*SwapOrNot, error) {
	if n == 0 || n > MaxDomain {
		return nil, fmt.Errorf("%w: n=%d", ErrBadDomain, n)
	}
	if rounds <= 0 {
		bits := 1
		for uint64(1)<<bits < n {
			bits++
		}
		rounds = 6*bits + 6
	}
	k := make([]byte, len(key))
	copy(k, key)
	s := &SwapOrNot{key: k, prf: newHMACPRF(k), n: n, rounds: rounds}
	s.ks = make([]uint64, rounds)
	for i := range s.ks {
		s.ks[i] = s.prf.sum64('K', uint32(i), 0) % n
	}
	return s, nil
}

// Domain returns the permutation's domain size.
func (s *SwapOrNot) Domain() uint64 { return s.n }

// Index maps x to its permuted position.
func (s *SwapOrNot) Index(x uint64) uint64 {
	if x >= s.n {
		panic(fmt.Sprintf("prp: index %d outside domain %d", x, s.n))
	}
	for i := 0; i < s.rounds; i++ {
		x = s.round(uint32(i), x)
	}
	return x
}

// IndexBatch maps the consecutive positions first..first+len(dst) in one
// call.
func (s *SwapOrNot) IndexBatch(first uint64, dst []uint64) {
	for i := range dst {
		dst[i] = s.Index(first + uint64(i))
	}
}

// Inverse maps a permuted position back. Each round is an involution, so
// inversion applies the rounds in reverse order.
func (s *SwapOrNot) Inverse(y uint64) uint64 {
	if y >= s.n {
		panic(fmt.Sprintf("prp: index %d outside domain %d", y, s.n))
	}
	for i := s.rounds - 1; i >= 0; i-- {
		y = s.round(uint32(i), y)
	}
	return y
}

func (s *SwapOrNot) round(i uint32, x uint64) uint64 {
	partner := s.ks[i] + s.n - x%s.n
	if partner >= s.n {
		partner -= s.n
	}
	hi := x
	if partner > hi {
		hi = partner
	}
	if s.prf.sum64('B', i, hi)&1 == 1 {
		return partner
	}
	return x
}
