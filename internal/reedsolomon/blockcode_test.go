package reedsolomon

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/gf256"
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
// the paper's degree-32 generator (pair kernel), a degree-16, a degree-13
// and a degree-4 one (single-column Reduce throughout), each at block
// sizes that are one column, exactly pairs, pairs plus an odd tail, two
// words wide and, on the GFNI kernel, a masked tail group after none, one
// and two full groups of sixteen columns.
var (
	columnShapes     = []struct{ n, k int }{{255, 223}, {255, 239}, {43, 30}, {15, 11}}
	columnBlockSizes = []int{1, 2, 3, 15, 16, 17, 32, 47}
)

// codePath is a block code on one of its column kernels.
type codePath struct {
	name string
	bc   *BlockCode
}

// blockCodePaths returns the paths the chunk tests run code on at block
// size bs: the GFNI kernel where NewBlockCode chose it, and the portable
// kernels on every host. A host without the kernel says in the test log
// what it lacks.
func blockCodePaths(t testing.TB, code *Code, bs int) []codePath {
	t.Helper()
	bc, err := NewBlockCode(code, bs)
	if err != nil {
		t.Fatal(err)
	}
	if !bc.groups {
		if m := gf256.KernelMissing(); m != "" {
			t.Logf("GFNI column kernel not run: host lacks %s", m)
		}
		return []codePath{{"portable", bc}}
	}
	portable := *bc
	portable.groups = false
	return []codePath{{"gfni", bc}, {"portable", &portable}}
}

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
			for _, path := range blockCodePaths(t, code, bs) {
				data := randBytes(int64(s.n*100+bs), s.k*bs)
				got := randBytes(1, s.n*bs) // junk: must be overwritten
				if err := path.bc.EncodeChunkInto(got, data); err != nil {
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
							t.Fatalf("(%d,%d,bs%d) %s stripe %d block %d: %#x, want %#x", s.n, s.k, bs, path.name, j, b, got[b*bs+j], w)
						}
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
			for _, path := range blockCodePaths(t, code, bs) {
				bc := path.bc
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
							t.Fatalf("(%d,%d,bs%d) %s d=%d %s: err %v, want ErrTooManyErrors", s.n, s.k, bs, path.name, d, name, err)
						case wantFail:
							if want := "stripe 0: " + ErrTooManyErrors.Error(); err.Error() != want {
								t.Fatalf("(%d,%d,bs%d) %s d=%d %s: error text %q, want %q", s.n, s.k, bs, path.name, d, name, err, want)
							}
						case err != nil:
							t.Fatalf("(%d,%d,bs%d) %s d=%d %s: %v", s.n, s.k, bs, path.name, d, name, err)
						case !bytes.Equal(got, data):
							t.Fatalf("(%d,%d,bs%d) %s d=%d %s: decoded wrong data", s.n, s.k, bs, path.name, d, name)
						}
						if !bytes.Equal(chunk, snapshot) {
							t.Fatalf("(%d,%d,bs%d) %s d=%d %s: input chunk modified", s.n, s.k, bs, path.name, d, name)
						}
					}
				}
			}
		}
	}
}

// TestChunkIntoAllocatesNothing: encoding and decoding run entirely in
// the caller's buffers and the stack — for the paper's code on the GFNI
// kernel, the pair kernel and the odd-column tail, and for RS(255,239),
// whose two-word rows take the single-column Reduce off the GFNI kernel —
// for a clean chunk, for erasure-listed damage up to the full budget and
// for blind damage.
func TestChunkIntoAllocatesNothing(t *testing.T) {
	for _, shape := range []struct{ n, k int }{{StdN, StdK}, {255, 239}} {
		code := MustNew(shape.n, shape.k)
		budget := shape.n - shape.k
		for _, bs := range []int{16, 17} {
			for _, path := range blockCodePaths(t, code, bs) {
				bc, desc := path.bc, fmt.Sprintf("(%d,%d,bs%d) %s", shape.n, shape.k, bs, path.name)
				data := randBytes(3, shape.k*bs)
				chunk := make([]byte, shape.n*bs)
				out := make([]byte, len(data))
				if n := testing.AllocsPerRun(20, func() {
					if err := bc.EncodeChunkInto(chunk, data); err != nil {
						t.Fatal(err)
					}
				}); n != 0 {
					t.Errorf("%s: EncodeChunkInto allocates %v times per call", desc, n)
				}
				if n := testing.AllocsPerRun(20, func() {
					if err := bc.DecodeChunkInto(out, chunk, nil); err != nil {
						t.Fatal(err)
					}
				}); n != 0 {
					t.Errorf("%s: clean DecodeChunkInto allocates %v times per call", desc, n)
				}
				if !bytes.Equal(out, data) {
					t.Fatalf("%s: round trip mismatch", desc)
				}
				// Damaged chunks: erasure lists solved once per chunk, and
				// blind decoding through Berlekamp-Massey, Chien and Forney.
				rng := rand.New(rand.NewSource(int64(bs)))
				for _, c := range []struct {
					name   string
					bad    int
					listed bool
				}{{"e=1", 1, true}, {"e=3", 3, true}, {fmt.Sprintf("e=%d", budget), budget, true}, {"blind 8", 8, false}} {
					damaged := append([]byte(nil), chunk...)
					bad := rng.Perm(shape.n)[:c.bad]
					trashBlocks(rng, damaged, bs, bad)
					var list []int
					if c.listed {
						list = bad
					}
					if n := testing.AllocsPerRun(20, func() {
						if err := bc.DecodeChunkInto(out, damaged, list); err != nil {
							t.Fatal(err)
						}
					}); n != 0 {
						t.Errorf("%s %s: DecodeChunkInto allocates %v times per call", desc, c.name, n)
					}
					if !bytes.Equal(out, data) {
						t.Fatalf("%s %s: decoded wrong data", desc, c.name)
					}
				}
			}
		}
	}
}

// TestBlockCodeSharedAcrossGoroutines uses one BlockCode from 8 goroutines
// at once, as the POR encode and extract worker pools do, on each column
// kernel: the kernels keep their remainder windows in locals or the
// caller's stack, never in the shared Reducer, and each damaged chunk's
// erasure solver lives in its own call. Run under -race -count=10 in CI.
func TestBlockCodeSharedAcrossGoroutines(t *testing.T) {
	// Block size 17: sixteen-column groups and a masked tail, or pairs
	// and the odd tail.
	for _, path := range blockCodePaths(t, MustNew(StdN, StdK), 17) {
		bc := path.bc
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
					for round, nBad := range []int{0, 1, 3, 8, 16, 24} {
						rng.Read(data)
						if err := bc.EncodeChunkInto(chunk, data); err != nil {
							return err
						}
						perm := rng.Perm(bc.ChunkBlocks())
						bad := perm[:nBad]
						trashBlocks(rng, chunk, bc.BlockSize(), bad)
						// Blind within T, exact, and padded with clean
						// blocks to the full erasure budget.
						lists := [][]int{bad, perm[:32]}
						if nBad <= bc.Code().T() {
							lists = append(lists, nil)
						}
						for _, list := range lists {
							if err := bc.DecodeChunkInto(got, chunk, list); err != nil {
								return fmt.Errorf("%s worker %d round %d: %w", path.name, w, round, err)
							}
							if !bytes.Equal(got, data) {
								return fmt.Errorf("%s worker %d round %d: decoded wrong data", path.name, w, round)
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
}

// decodePerStripe is the chunk decoder's specification: gather every
// stripe, run the symbol-level Code.Decode on it with the chunk's list,
// and stop at the first stripe that fails, naming it.
func decodePerStripe(code *Code, bs int, chunk []byte, list []int) ([]byte, error) {
	n, k := code.N(), code.K()
	out := make([]byte, k*bs)
	cw := make([]byte, n)
	for j := 0; j < bs; j++ {
		for b := range cw {
			cw[b] = chunk[b*bs+j]
		}
		data, err := code.Decode(cw, list)
		if err != nil {
			return nil, fmt.Errorf("stripe %d: %w", j, err)
		}
		for b, v := range data {
			out[b*bs+j] = v
		}
	}
	return out, nil
}

// checkMatchesPerStripe fails unless DecodeChunkInto returns exactly what
// decodePerStripe does: the same bytes on success, the same error text on
// failure.
func checkMatchesPerStripe(t *testing.T, bc *BlockCode, chunk []byte, list []int, desc string) error {
	t.Helper()
	want, wantErr := decodePerStripe(bc.Code(), bc.BlockSize(), chunk, list)
	got := make([]byte, bc.DataBlocks()*bc.BlockSize())
	err := bc.DecodeChunkInto(got, chunk, list)
	switch {
	case (err == nil) != (wantErr == nil):
		t.Fatalf("%s: error %v, per-stripe decode %v", desc, err, wantErr)
	case err != nil && err.Error() != wantErr.Error():
		t.Fatalf("%s: error %q, per-stripe decode %q", desc, err, wantErr)
	case err == nil && !bytes.Equal(got, want):
		t.Fatalf("%s: bytes differ from the per-stripe decode", desc)
	}
	return err
}

// TestDecodeChunkMatchesPerStripeDecode pins DecodeChunkInto, and with it
// the per-chunk erasure solve, to a per-stripe Code.Decode of the gathered
// codewords over the column sweep: e listed blocks with v unlisted damaged
// ones (2v + e ≤ n-k, so the solver must decline whenever v > 0 and
// correct must still succeed, and one unlisted block more than that),
// lists that also name undamaged blocks, lists of parity positions only,
// and repeated positions.
func TestDecodeChunkMatchesPerStripeDecode(t *testing.T) {
	for _, s := range columnShapes {
		code := MustNew(s.n, s.k)
		m := s.n - s.k
		for _, bs := range columnBlockSizes {
			for _, path := range blockCodePaths(t, code, bs) {
				bc := path.bc
				rng := rand.New(rand.NewSource(int64(s.n*977 + s.k*31 + bs)))
				data := make([]byte, s.k*bs)
				rng.Read(data)
				clean, err := bc.EncodeChunk(data)
				if err != nil {
					t.Fatal(err)
				}
				run := func(desc string, damaged, list []int, mustDecode bool) {
					chunk := append([]byte(nil), clean...)
					trashBlocks(rng, chunk, bs, damaged)
					desc = fmt.Sprintf("(%d,%d,bs%d) %s %s", s.n, s.k, bs, path.name, desc)
					if err := checkMatchesPerStripe(t, bc, chunk, list, desc); mustDecode && err != nil {
						t.Fatalf("%s: %v", desc, err)
					}
				}
				for _, e := range []int{1, 2, 3, 8, 16, 31, 32} {
					if e > m {
						continue
					}
					for _, v := range []int{0, 1, (m - e) / 2, (m-e)/2 + 1} {
						if e+v > s.n {
							continue
						}
						perm := rng.Perm(s.n)
						listed, unlisted := perm[:e], perm[e:e+v]
						run(fmt.Sprintf("e=%d v=%d", e, v), append(append([]int(nil), listed...), unlisted...), listed, 2*v+e <= m)
					}
					// Only some listed blocks damaged: the rest are clean.
					perm := rng.Perm(s.n)
					run(fmt.Sprintf("e=%d half damaged", e), perm[:(e+1)/2], perm[:e], true)
					// Parity positions only.
					if e <= m {
						parity := make([]int, e)
						for i, p := range rng.Perm(m)[:e] {
							parity[i] = s.k + p
						}
						run(fmt.Sprintf("e=%d parity only", e), parity, parity, true)
					}
					// A repeated position, with the damage on the list.
					if e >= 2 {
						perm = rng.Perm(s.n)
						dup := append(append([]int(nil), perm[:e-1]...), perm[0])
						run(fmt.Sprintf("e=%d repeated", e), perm[:e-1], dup, false)
					}
				}
			}
		}
	}
}
