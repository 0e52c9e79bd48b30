package por

import (
	"bytes"
	"fmt"
	"math/rand"
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
