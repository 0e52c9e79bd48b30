package reedsolomon

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

func newStdBlockCode(t *testing.T) *BlockCode {
	t.Helper()
	bc, err := NewBlockCode(MustNew(StdN, StdK), 16)
	if err != nil {
		t.Fatal(err)
	}
	return bc
}

func TestBlockCodeShape(t *testing.T) {
	bc := newStdBlockCode(t)
	if bc.DataBlocks() != 223 || bc.ChunkBlocks() != 255 || bc.BlockSize() != 16 {
		t.Fatalf("unexpected shape: k=%d n=%d bs=%d", bc.DataBlocks(), bc.ChunkBlocks(), bc.BlockSize())
	}
	exp := bc.Expansion()
	if exp < 1.14 || exp > 1.15 {
		t.Fatalf("expansion %.4f, want ≈1.1435 (paper: about 14%%)", exp)
	}
}

func TestNewBlockCodeRejectsBadArgs(t *testing.T) {
	if _, err := NewBlockCode(nil, 16); err == nil {
		t.Error("nil code accepted")
	}
	if _, err := NewBlockCode(MustNew(255, 223), 0); err == nil {
		t.Error("zero block size accepted")
	}
}

func TestBlockChunkRoundTrip(t *testing.T) {
	bc := newStdBlockCode(t)
	data := randBytes(7, bc.DataBlocks()*bc.BlockSize())
	enc, err := bc.EncodeChunk(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) != bc.ChunkBlocks()*bc.BlockSize() {
		t.Fatalf("encoded chunk %d bytes, want %d", len(enc), bc.ChunkBlocks()*bc.BlockSize())
	}
	if !bytes.Equal(enc[:len(data)], data) {
		t.Fatal("block code not systematic")
	}
	dec, err := bc.DecodeChunk(enc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec, data) {
		t.Fatal("clean round trip mismatch")
	}
}

func TestBlockCodeCorrectsCorruptedBlocks(t *testing.T) {
	bc := newStdBlockCode(t)
	rng := rand.New(rand.NewSource(11))
	data := randBytes(8, bc.DataBlocks()*bc.BlockSize())
	enc, _ := bc.EncodeChunk(data)

	for _, nBad := range []int{1, 5, 16} {
		corrupted := make([]byte, len(enc))
		copy(corrupted, enc)
		for _, b := range rng.Perm(bc.ChunkBlocks())[:nBad] {
			// Trash the whole block.
			off := b * bc.BlockSize()
			rng.Read(corrupted[off : off+bc.BlockSize()])
		}
		dec, err := bc.DecodeChunk(corrupted, nil)
		if err != nil {
			t.Fatalf("nBad=%d: %v", nBad, err)
		}
		if !bytes.Equal(dec, data) {
			t.Fatalf("nBad=%d: decode mismatch", nBad)
		}
	}
}

func TestBlockCodeErasureBlocks(t *testing.T) {
	bc := newStdBlockCode(t)
	rng := rand.New(rand.NewSource(12))
	data := randBytes(9, bc.DataBlocks()*bc.BlockSize())
	enc, _ := bc.EncodeChunk(data)
	corrupted := make([]byte, len(enc))
	copy(corrupted, enc)
	bad := rng.Perm(bc.ChunkBlocks())[:32] // full erasure budget
	for _, b := range bad {
		off := b * bc.BlockSize()
		rng.Read(corrupted[off : off+bc.BlockSize()])
	}
	dec, err := bc.DecodeChunk(corrupted, bad)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec, data) {
		t.Fatal("erasure decode mismatch")
	}
}

func TestBlockCodeFailsBeyondCapacity(t *testing.T) {
	bc := newStdBlockCode(t)
	rng := rand.New(rand.NewSource(13))
	data := randBytes(10, bc.DataBlocks()*bc.BlockSize())
	enc, _ := bc.EncodeChunk(data)
	for _, b := range rng.Perm(bc.ChunkBlocks())[:40] {
		off := b * bc.BlockSize()
		rng.Read(enc[off : off+bc.BlockSize()])
	}
	if _, err := bc.DecodeChunk(enc, nil); err == nil {
		t.Fatal("expected failure with 40 corrupted blocks")
	}
}

func TestBlockCodeWrongSizes(t *testing.T) {
	bc := newStdBlockCode(t)
	if _, err := bc.EncodeChunk(make([]byte, 10)); !errors.Is(err, ErrWrongLength) {
		t.Fatalf("EncodeChunk: got %v", err)
	}
	if _, err := bc.DecodeChunk(make([]byte, 10), nil); !errors.Is(err, ErrWrongLength) {
		t.Fatalf("DecodeChunk: got %v", err)
	}
	if _, err := bc.DecodeChunk(make([]byte, bc.ChunkBlocks()*16), []int{300}); !errors.Is(err, ErrBadErasurePos) {
		t.Fatalf("bad erasure: got %v", err)
	}
}

// TestChunkIntoVariantsMatchAllocating pins the buffer-reusing entry
// points byte-identical to their allocating wrappers, including buffer
// reuse across calls with differing contents and corrupted chunks.
func TestChunkIntoVariantsMatchAllocating(t *testing.T) {
	bc, err := NewBlockCode(MustNew(15, 11), 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	encDst := make([]byte, bc.ChunkBlocks()*8)
	decDst := make([]byte, bc.DataBlocks()*8)
	for trial := 0; trial < 20; trial++ {
		data := make([]byte, bc.DataBlocks()*8)
		rng.Read(data)
		want, err := bc.EncodeChunk(data)
		if err != nil {
			t.Fatal(err)
		}
		if err := bc.EncodeChunkInto(encDst, data); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encDst, want) {
			t.Fatalf("trial %d: EncodeChunkInto differs from EncodeChunk", trial)
		}
		// Corrupt up to two blocks and decode both ways.
		chunk := append([]byte(nil), want...)
		var bad []int
		for _, b := range rng.Perm(bc.ChunkBlocks())[:rng.Intn(3)] {
			rng.Read(chunk[b*8 : (b+1)*8])
			bad = append(bad, b)
		}
		wantDec, err := bc.DecodeChunk(chunk, bad)
		if err != nil {
			t.Fatal(err)
		}
		if err := bc.DecodeChunkInto(decDst, chunk, bad); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(decDst, wantDec) || !bytes.Equal(decDst, data) {
			t.Fatalf("trial %d: DecodeChunkInto mismatch", trial)
		}
	}
	if err := bc.EncodeChunkInto(make([]byte, 3), make([]byte, bc.DataBlocks()*8)); !errors.Is(err, ErrWrongLength) {
		t.Fatalf("short encode dst: got %v", err)
	}
	if err := bc.DecodeChunkInto(make([]byte, 3), make([]byte, bc.ChunkBlocks()*8), nil); !errors.Is(err, ErrWrongLength) {
		t.Fatalf("short decode dst: got %v", err)
	}
}

// columnShapes × columnBlockSizes is the sweep for the column data plane:
// the paper's degree-32 generator (pair kernel), a degree-16 and a degree-4
// one (single-column Reduce throughout), each at block sizes that are one
// column, exactly pairs, pairs plus an odd tail, and two words wide.
var (
	columnShapes     = []struct{ n, k int }{{255, 223}, {255, 239}, {15, 11}}
	columnBlockSizes = []int{1, 2, 3, 15, 16, 17, 32}
)

// trashBlocks changes every byte of the listed blocks, so each of the
// chunk's stripes carries the same damage pattern.
func trashBlocks(rng *rand.Rand, chunk []byte, bs int, blocks []int) {
	for _, b := range blocks {
		for i := b * bs; i < (b+1)*bs; i++ {
			chunk[i] ^= byte(1 + rng.Intn(255))
		}
	}
}

// TestEncodeChunkMatchesReferencePerStripe pins the column encoder's
// parity byte-identical to the byte-at-a-time oracle run on each gathered
// stripe, and its data blocks to the input.
func TestEncodeChunkMatchesReferencePerStripe(t *testing.T) {
	for _, s := range columnShapes {
		code := MustNew(s.n, s.k)
		for _, bs := range columnBlockSizes {
			bc, err := NewBlockCode(code, bs)
			if err != nil {
				t.Fatal(err)
			}
			data := randBytes(int64(s.n*100+bs), s.k*bs)
			got := randBytes(1, s.n*bs) // junk: must be overwritten
			if err := bc.EncodeChunkInto(got, data); err != nil {
				t.Fatal(err)
			}
			stripe := make([]byte, s.k)
			for j := 0; j < bs; j++ {
				for b := range stripe {
					stripe[b] = data[b*bs+j]
				}
				want, err := code.encodeRef(stripe)
				if err != nil {
					t.Fatal(err)
				}
				for b, w := range want {
					if got[b*bs+j] != w {
						t.Fatalf("(%d,%d,bs%d) stripe %d block %d: %#x, want %#x", s.n, s.k, bs, j, b, got[b*bs+j], w)
					}
				}
			}
		}
	}
}

// TestDecodeChunkDamageMatrix drives DecodeChunkInto over the sweep with
// 0, 1, T and T+1 trashed blocks and every kind of erasure list the tag
// pass can hand it: none, exact, over-wide (undamaged blocks named too),
// short (one damaged block missing) and duplicated. Wherever blind and
// hinted decoding both succeed they must return the same bytes — the
// hinted stripes take the erasure shortcut past the Chien search, the
// blind and short-listed ones do not.
func TestDecodeChunkDamageMatrix(t *testing.T) {
	for _, s := range columnShapes {
		code := MustNew(s.n, s.k)
		tcap, budget := code.T(), s.n-s.k
		for _, bs := range columnBlockSizes {
			bc, err := NewBlockCode(code, bs)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(s.n*1000 + s.k*10 + bs)))
			data := make([]byte, s.k*bs)
			rng.Read(data)
			clean, err := bc.EncodeChunk(data)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range []int{0, 1, tcap, tcap + 1} {
				perm := rng.Perm(s.n)
				bad, spare := perm[:d], perm[d:]
				chunk := append([]byte(nil), clean...)
				trashBlocks(rng, chunk, bs, bad)
				snapshot := append([]byte(nil), chunk...)

				lists := map[string][]int{"blind": nil, "exact": bad}
				lists["wide"] = append(append([]int(nil), bad...), spare[:min(2, budget-d)]...)
				if d > 0 {
					lists["short"] = bad[1:]
					lists["dup"] = append([]int{bad[0]}, bad...)
				} else {
					lists["dup"] = []int{spare[0], spare[0]}
				}
				got := make([]byte, len(data))
				for name, list := range lists {
					err := bc.DecodeChunkInto(got, chunk, list)
					// A repeated position in a damaged stripe is a locator
					// with fewer roots than its degree; unhinted damage
					// past T is beyond the code.
					wantFail := d > 0 && name == "dup" || d > tcap && name == "blind"
					switch {
					case wantFail && !errors.Is(err, ErrTooManyErrors):
						// Past T a bounded-distance decoder may land on
						// another codeword; for T = 2 that is likely, for
						// T ≥ 8 it is not (≈ 1/T! per stripe).
						if name == "blind" && tcap < 8 && err == nil && !bytes.Equal(got, data) {
							break
						}
						t.Fatalf("(%d,%d,bs%d) d=%d %s: err %v, want ErrTooManyErrors", s.n, s.k, bs, d, name, err)
					case wantFail:
						if want := "stripe 0: " + ErrTooManyErrors.Error(); err.Error() != want {
							t.Fatalf("(%d,%d,bs%d) d=%d %s: error text %q, want %q", s.n, s.k, bs, d, name, err, want)
						}
					case err != nil:
						t.Fatalf("(%d,%d,bs%d) d=%d %s: %v", s.n, s.k, bs, d, name, err)
					case !bytes.Equal(got, data):
						t.Fatalf("(%d,%d,bs%d) d=%d %s: decoded wrong data", s.n, s.k, bs, d, name)
					}
					if !bytes.Equal(chunk, snapshot) {
						t.Fatalf("(%d,%d,bs%d) d=%d %s: input chunk modified", s.n, s.k, bs, d, name)
					}
				}
			}
		}
	}
}

// TestChunkIntoAllocatesNothing: with the paper's code, encoding and
// decoding a clean chunk run entirely in the caller's buffers and the
// stack, on the pair kernel and on the odd-column tail alike.
func TestChunkIntoAllocatesNothing(t *testing.T) {
	for _, bs := range []int{16, 17} {
		bc, err := NewBlockCode(MustNew(StdN, StdK), bs)
		if err != nil {
			t.Fatal(err)
		}
		data := randBytes(3, StdK*bs)
		chunk := make([]byte, StdN*bs)
		out := make([]byte, len(data))
		if n := testing.AllocsPerRun(20, func() {
			if err := bc.EncodeChunkInto(chunk, data); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("bs%d: EncodeChunkInto allocates %v times per call", bs, n)
		}
		if n := testing.AllocsPerRun(20, func() {
			if err := bc.DecodeChunkInto(out, chunk, nil); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("bs%d: clean DecodeChunkInto allocates %v times per call", bs, n)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("bs%d: round trip mismatch", bs)
		}
	}
}

// TestBlockCodeSharedAcrossGoroutines uses one BlockCode from 8 goroutines
// at once, as the POR encode and extract worker pools do: the column
// kernel keeps both remainder windows in locals, never in the shared
// Reducer. Run under -race -count=10 in CI.
func TestBlockCodeSharedAcrossGoroutines(t *testing.T) {
	bc, err := NewBlockCode(MustNew(StdN, StdK), 17) // pairs and the odd tail
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		go func() {
			errs <- func() error {
				rng := rand.New(rand.NewSource(int64(w)))
				data := make([]byte, bc.DataBlocks()*bc.BlockSize())
				chunk := make([]byte, bc.ChunkBlocks()*bc.BlockSize())
				got := make([]byte, len(data))
				for round := 0; round < 4; round++ {
					rng.Read(data)
					if err := bc.EncodeChunkInto(chunk, data); err != nil {
						return err
					}
					bad := rng.Perm(bc.ChunkBlocks())[:round]
					trashBlocks(rng, chunk, bc.BlockSize(), bad)
					for _, list := range [][]int{nil, bad} {
						if err := bc.DecodeChunkInto(got, chunk, list); err != nil {
							return fmt.Errorf("worker %d round %d: %w", w, round, err)
						}
						if !bytes.Equal(got, data) {
							return fmt.Errorf("worker %d round %d: decoded wrong data", w, round)
						}
					}
				}
				return nil
			}()
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}
