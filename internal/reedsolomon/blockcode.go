package reedsolomon

import (
	"encoding/binary"
	"fmt"
)

// BlockCode applies an RS(n, k) code to chunks of fixed-size blocks by
// byte-position interleaving: byte position j of every block in a chunk
// forms one RS codeword. A chunk of k data blocks therefore expands to n
// blocks, and any set of up to T() corrupted blocks per chunk (or up to
// n-k known-bad blocks) is recoverable, matching the per-block correction
// power the GeoProof paper assumes for its (255,223,32) code over 128-bit
// blocks.
type BlockCode struct {
	code      *Code
	blockSize int
	// groups: the chunk's byte columns run sixteen at a time on the GFNI
	// kernel (gf256.Reducer.ReduceColumns16). It is set from the host's
	// CPU and the code's degree, and only tests clear it, to run the
	// portable kernels on the same code.
	groups bool
}

// NewBlockCode builds a block-interleaved codec. blockSize is in bytes
// (16 for the paper's 128-bit AES-sized blocks).
func NewBlockCode(code *Code, blockSize int) (*BlockCode, error) {
	if code == nil || blockSize <= 0 {
		return nil, fmt.Errorf("%w: nil code or blockSize=%d", ErrBadShape, blockSize)
	}
	return &BlockCode{code: code, blockSize: blockSize, groups: code.red.CanReduceColumns16()}, nil
}

// Code returns the underlying symbol-level code.
func (bc *BlockCode) Code() *Code { return bc.code }

// BlockSize returns the block size in bytes.
func (bc *BlockCode) BlockSize() int { return bc.blockSize }

// DataBlocks returns the number of data blocks per chunk (k).
func (bc *BlockCode) DataBlocks() int { return bc.code.K() }

// ChunkBlocks returns the number of blocks per encoded chunk (n).
func (bc *BlockCode) ChunkBlocks() int { return bc.code.N() }

// EncodeChunk encodes exactly k·blockSize bytes of data into n·blockSize
// bytes (data blocks followed by parity blocks). The data blocks are
// copied once and the byte columns are driven through the code's column
// kernel where they lie — sixteen at a time on the GFNI kernel, else in
// adjacent pairs — with no per-codeword allocation and no full column
// gather/scatter of the data blocks.
func (bc *BlockCode) EncodeChunk(data []byte) ([]byte, error) {
	out := make([]byte, bc.code.N()*bc.blockSize)
	if err := bc.EncodeChunkInto(out, data); err != nil {
		return nil, err
	}
	return out, nil
}

// maxScratch bounds Reducer.Scratch(k) for every shape New accepts
// (k + (n-k rounded up to a word) ≤ n + 7), so per-call scratch can live
// on the stack.
const maxScratch = 255 + 7

// EncodeChunkInto is EncodeChunk writing into a caller-provided buffer of
// n·blockSize bytes, allocating nothing. It is the entry point the
// streaming POR pipeline drives with pooled chunk buffers. dst must not
// overlap data.
func (bc *BlockCode) EncodeChunkInto(dst, data []byte) error {
	k, n, bs := bc.code.K(), bc.code.N(), bc.blockSize
	if len(data) != k*bs {
		return fmt.Errorf("%w: chunk is %d bytes, want %d", ErrWrongLength, len(data), k*bs)
	}
	if len(dst) != n*bs {
		return fmt.Errorf("%w: dst is %d bytes, want %d", ErrWrongLength, len(dst), n*bs)
	}
	copy(dst, data)
	red, parity := bc.code.red, dst[k*bs:]
	if bc.groups {
		// The kernel's remainder rows are the parity rows' bytes j..j+w-1;
		// a whole row is one 16-byte move rather than a copy call.
		var rem [32][16]byte
		for j := 0; j < bs; j += 16 {
			w := min(16, bs-j)
			red.ReduceColumns16(&rem, data, bs, j, w, k)
			for b := 0; b < n-k; b++ {
				if w == 16 {
					*(*[16]byte)(parity[b*bs+j:]) = rem[b]
				} else {
					copy(parity[b*bs+j:b*bs+j+w], rem[b][:w])
				}
			}
		}
		return nil
	}
	j := 0
	if red.CanReduceColumnPair() {
		var win [2][32]byte
		for ; j+1 < bs; j += 2 {
			red.ReduceColumnPair(&win, data, bs, j, k)
			for b := 0; b < n-k; b++ {
				parity[b*bs+j], parity[b*bs+j+1] = win[0][b], win[1][b]
			}
		}
	}
	var buf [maxScratch]byte
	for ; j < bs; j++ {
		for b, v := range bc.reduceColumn(buf[:], data, j) {
			parity[b*bs+j] = v
		}
	}
	return nil
}

// reduceColumn is the single-column path for what the pair kernel leaves
// off the GFNI kernel: the odd trailing column, and every column of a
// generator whose rows are not four words wide. It gathers column j of
// src's k data blocks into scratch, reduces it there and returns the n-k
// remainder coefficients of column(x)·x^(n-k) mod g, which alias scratch.
func (bc *BlockCode) reduceColumn(scratch, src []byte, j int) []byte {
	k, n, bs := bc.code.K(), bc.code.N(), bc.blockSize
	scratch = scratch[:bc.code.red.Scratch(k)]
	for b := 0; b < k; b++ {
		scratch[b] = src[b*bs+j]
	}
	for i := k; i < len(scratch); i++ {
		scratch[i] = 0
	}
	bc.code.red.Reduce(scratch, k)
	return scratch[k:n]
}

// DecodeChunk recovers the k·blockSize data bytes from an n·blockSize
// chunk, correcting corrupted blocks. badBlocks optionally lists block
// indexes within the chunk known to be unreliable (treated as erasures in
// every interleaved codeword).
//
// Each stripe first passes through a cheap all-syndromes-zero parity
// check (one slab reduction, shared by sixteen stripes on the GFNI
// kernel, which tests their whole remainder for zero at once); clean
// stripes — the honest-prover common case — are the chunk's leading
// k·blockSize bytes verbatim and never touch the Berlekamp-Massey /
// Chien / Forney machinery. Erasure hints cannot change the result for a
// stripe that already is a valid codeword, so the fast path is
// byte-identical to the full decode.
func (bc *BlockCode) DecodeChunk(chunk []byte, badBlocks []int) ([]byte, error) {
	out := make([]byte, bc.code.K()*bc.blockSize)
	if err := bc.DecodeChunkInto(out, chunk, badBlocks); err != nil {
		return nil, err
	}
	return out, nil
}

// DecodeChunkInto is DecodeChunk writing the recovered k·blockSize data
// bytes into a caller-provided buffer — the streaming extractor's entry
// point for pooled buffers. The data blocks are copied once and every
// stripe is tested against the generator where it lies, with no full
// column gather/scatter. On the GFNI kernel sixteen stripes are tested at
// once: the group's remainder rows, XORed with the received parity rows,
// are all zero when every stripe is clean, and only a group with a
// nonzero byte takes the per-stripe test. A stripe that fails that test
// is repaired in its column of dst by the chunk's erasure solver when its
// damage lies on badBlocks, and otherwise gathered, corrected and written
// back; either way the result is the full decoder's. For the paper's code
// nothing is allocated, clean or damaged. dst must not overlap chunk,
// which is only read. On error dst contents are unspecified.
func (bc *BlockCode) DecodeChunkInto(dst, chunk []byte, badBlocks []int) error {
	k, n, bs := bc.code.K(), bc.code.N(), bc.blockSize
	if len(chunk) != n*bs {
		return fmt.Errorf("%w: chunk is %d bytes, want %d", ErrWrongLength, len(chunk), n*bs)
	}
	if len(dst) != k*bs {
		return fmt.Errorf("%w: dst is %d bytes, want %d", ErrWrongLength, len(dst), k*bs)
	}
	for _, b := range badBlocks {
		if b < 0 || b >= n {
			return fmt.Errorf("%w: block %d", ErrBadErasurePos, b)
		}
	}
	if len(badBlocks) > n-k {
		// Same verdict the symbol decoder reaches on its first stripe.
		return fmt.Errorf("stripe 0: %w", ErrTooManyErrors)
	}
	copy(dst, chunk[:k*bs])
	red, parity := bc.code.red, chunk[k*bs:]
	var cw [255]byte
	var buf [maxScratch]byte
	var synd [255]byte
	// The erasure list is solved on the first dirty stripe and reused by
	// the rest of the chunk.
	var (
		solver    erasureSolver
		solvable  bool
		solved    bool
		solverBuf [stackSolver]byte
	)
	// check takes w = column(x)·x^(n-k) mod g of stripe j's data symbols.
	// Adding the received parity symbols gives the stripe's remainder mod
	// g; only when that is nonzero is the stripe repaired: through the
	// chunk's erasure solver when its damage lies on the list, otherwise
	// gathered, corrected and written back over its column of dst.
	check := func(j int, w []byte) error {
		for b := range w {
			w[b] ^= parity[b*bs+j]
		}
		if allZero(w) {
			return nil
		}
		if !solved {
			solver, solvable = newErasureSolver(bc.code, badBlocks, solverBuf[:])
			solved = true
		}
		if solvable {
			if y, ok := solver.solve(w); ok {
				for i, p := range badBlocks {
					if p < k {
						dst[p*bs+j] ^= y[i]
					}
				}
				return nil
			}
		}
		bc.code.syndromes(synd[:], w) // w may alias buf, which correct reuses
		for b := 0; b < n; b++ {
			cw[b] = chunk[b*bs+j]
		}
		if err := bc.code.correct(cw[:n], synd[:n-k], badBlocks, buf[:red.Scratch(k)]); err != nil {
			return fmt.Errorf("stripe %d: %w", j, err)
		}
		for b := 0; b < k; b++ {
			dst[b*bs+j] = cw[b]
		}
		return nil
	}
	if bc.groups {
		var rem [32][16]byte
		var w [32]byte
		for j := 0; j < bs; j += 16 {
			width := min(16, bs-j)
			red.ReduceColumns16(&rem, chunk, bs, j, width, k)
			if groupClean(&rem, parity, bs, j, width, n-k) {
				continue
			}
			for c := 0; c < width; c++ {
				for b := range w[:n-k] {
					w[b] = rem[b][c]
				}
				if err := check(j+c, w[:n-k]); err != nil {
					return err
				}
			}
		}
		return nil
	}
	j := 0
	if red.CanReduceColumnPair() {
		var win [2][32]byte
		for ; j+1 < bs; j += 2 {
			red.ReduceColumnPair(&win, chunk, bs, j, k)
			for c := range win {
				if err := check(j+c, win[c][:n-k]); err != nil {
					return err
				}
			}
		}
	}
	for ; j < bs; j++ {
		if err := check(j, bc.reduceColumn(buf[:], chunk, j)); err != nil {
			return err
		}
	}
	return nil
}

// groupClean reports whether the first `rows` remainder rows of a
// sixteen-column group, XORed with the received parity rows — bytes
// j..j+width-1 of parity's blocks of bs bytes — are all zero, that is
// whether every stripe of the group is a codeword.
func groupClean(rem *[32][16]byte, parity []byte, bs, j, width, rows int) bool {
	var acc uint64
	if width == 16 {
		for b := 0; b < rows; b++ {
			p := parity[b*bs+j : b*bs+j+16]
			acc |= binary.LittleEndian.Uint64(rem[b][:8]) ^ binary.LittleEndian.Uint64(p[:8]) |
				binary.LittleEndian.Uint64(rem[b][8:]) ^ binary.LittleEndian.Uint64(p[8:])
		}
		return acc == 0
	}
	for b := 0; b < rows; b++ {
		for c, v := range parity[b*bs+j : b*bs+j+width] {
			acc |= uint64(rem[b][c] ^ v)
		}
	}
	return acc == 0
}
