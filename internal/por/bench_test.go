package por

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// benchFile is 1 MiB of seeded bytes, the in-memory pipeline benchmarks'
// input.
func benchFile() []byte {
	d := make([]byte, 1<<20)
	rand.New(rand.NewSource(1)).Read(d)
	return d
}

// BenchmarkPOREncode1MiB times the in-memory setup pipeline (Encode) with
// the paper's parameters.
func BenchmarkPOREncode1MiB(b *testing.B) {
	enc := NewEncoder([]byte("bench-master"))
	data := benchFile()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.Encode(fmt.Sprintf("bench-%d", i), data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPORExtract1MiB times the in-memory recovery pipeline (Extract)
// of a clean encoding with the paper's parameters.
func BenchmarkPORExtract1MiB(b *testing.B) {
	enc := NewEncoder([]byte("bench-master"))
	data := benchFile()
	ef, err := enc.Encode("bench", data)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := enc.Extract("bench", ef.Layout, ef.Data)
		if err != nil {
			b.Fatal(err)
		}
		if !bytes.Equal(out, data) {
			b.Fatal("extract mismatch")
		}
	}
}

// BenchmarkPORVerifySegments1000 times the TPA-side tag check of a
// 1000-round audit, sequential and at NumCPU workers.
func BenchmarkPORVerifySegments1000(b *testing.B) {
	seq := NewEncoder([]byte("bench-master")).WithConcurrency(1)
	ef, err := seq.Encode("bench", benchFile())
	if err != nil {
		b.Fatal(err)
	}
	indices := make([]int64, 1000)
	segs := make([][]byte, len(indices))
	for j, i := range rand.New(rand.NewSource(2)).Perm(int(ef.Layout.Segments))[:len(indices)] {
		indices[j], segs[j] = int64(i), segmentAt(b, ef, int64(i))
	}
	for _, bc := range []struct {
		name string
		enc  *Encoder
	}{{"seq", seq}, {"par", seq.WithConcurrency(runtime.NumCPU())}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				verdicts, err := bc.enc.VerifySegments(ef.FileID, ef.Layout, indices, segs)
				if err != nil {
					b.Fatal(err)
				}
				for _, v := range verdicts {
					if v != nil {
						b.Fatal(v)
					}
				}
			}
		})
	}
}
