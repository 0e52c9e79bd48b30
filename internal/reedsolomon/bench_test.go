package reedsolomon

import (
	"fmt"
	"math/rand"
	"testing"
)

// The chunk codec's micro-benchmarks, on the paper's (255,223) code over
// 16-byte blocks. Decodes run into reused buffers through DecodeChunkInto
// (which only reads its chunk), so they time the decoder and not make.

// benchChunk returns the paper's block code, one chunk of data and its
// encoding.
func benchChunk(b *testing.B) (*BlockCode, []byte, []byte) {
	b.Helper()
	bc, err := NewBlockCode(MustNew(StdN, StdK), 16)
	if err != nil {
		b.Fatal(err)
	}
	data := randBytes(1, StdK*16)
	clean, err := bc.EncodeChunk(data)
	if err != nil {
		b.Fatal(err)
	}
	return bc, data, clean
}

// damagedChunk is clean with nBad seeded blocks overwritten at random; it
// returns the chunk and the damaged block indexes.
func damagedChunk(clean []byte, nBad int) ([]byte, []int) {
	rng := rand.New(rand.NewSource(2))
	chunk := append([]byte(nil), clean...)
	bad := rng.Perm(StdN)[:nBad]
	for _, blk := range bad {
		rng.Read(chunk[blk*16 : (blk+1)*16])
	}
	return chunk, bad
}

// benchDecode times DecodeChunkInto of chunk with the given erasure list.
func benchDecode(b *testing.B, bc *BlockCode, chunk []byte, erasures []int) {
	out := make([]byte, StdK*16)
	b.SetBytes(int64(len(chunk)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bc.DecodeChunkInto(out, chunk, erasures); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRSEncodeChunk and BenchmarkRSDecodeClean run once per column
// kernel the host has (blockCodePaths), so the portable kernels' speed
// stays visible beside the GFNI kernel's.
func BenchmarkRSEncodeChunk(b *testing.B) {
	bc, data, clean := benchChunk(b)
	for _, path := range blockCodePaths(b, bc.Code(), bc.BlockSize()) {
		b.Run(path.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := path.bc.EncodeChunkInto(clean, data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkRSDecodeClean(b *testing.B) {
	bc, _, clean := benchChunk(b)
	for _, path := range blockCodePaths(b, bc.Code(), bc.BlockSize()) {
		b.Run(path.name, func(b *testing.B) {
			benchDecode(b, path.bc, clean, nil)
		})
	}
}

// BenchmarkRSDecodeWithErrors is blind decoding of 8 corrupted blocks:
// syndromes, Berlekamp-Massey, Chien search and Forney on every stripe.
func BenchmarkRSDecodeWithErrors(b *testing.B) {
	bc, _, clean := benchChunk(b)
	chunk, _ := damagedChunk(clean, 8)
	benchDecode(b, bc, chunk, nil)
}

// BenchmarkRSDecodeWithErasures is the same kind of damage with the
// corrupted blocks listed as erasures (the MAC verdicts of a POR
// extract), swept over the list length up to the code's budget of 32.
func BenchmarkRSDecodeWithErasures(b *testing.B) {
	bc, _, clean := benchChunk(b)
	for _, e := range []int{1, 3, 8, 32} {
		b.Run(fmt.Sprintf("e=%d", e), func(b *testing.B) {
			chunk, bad := damagedChunk(clean, e)
			benchDecode(b, bc, chunk, bad)
		})
	}
}
