package prp

import "testing"

// benchDomain is the paper's 2 GB file in 16-byte blocks after RS and
// segment padding: the Feistel's domain for the §V-B worked example.
const benchDomain = 153008209

func BenchmarkPRPFeistel(b *testing.B) {
	p, err := NewFeistel([]byte("bench-key"), benchDomain, 8)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Index(uint64(i) % benchDomain)
	}
}

// BenchmarkPRPFeistelBatch is the bulk form of BenchmarkPRPFeistel: one
// IndexBatch call per 1024 consecutive positions, the shape the POR
// pipeline's permutation shards actually use, once per table path the host
// has — /avx512 (the 64-lane kernel) and /portable (four lanes in Go).
// Compare ns/index against BenchmarkPRPFeistel's ns/op.
func BenchmarkPRPFeistelBatch(b *testing.B) {
	logKernel(b)
	for _, p := range feistelPaths(b, []byte("bench-key"), benchDomain, 8) {
		b.Run(p.name, func(b *testing.B) {
			dst := make([]uint64, 1024)
			p.f.IndexBatch(0, dst) // build the table outside the timing
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.f.IndexBatch(uint64(i*1024)%(benchDomain-1024), dst)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/1024, "ns/index")
		})
	}
}
