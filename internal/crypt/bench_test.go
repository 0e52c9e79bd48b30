package crypt

import (
	"math/rand"
	"testing"
)

// BenchmarkSegmentTag times the allocating Tag on one default segment:
// 80 bytes (five 16-byte blocks) under a 20-bit tag, the paper's ℓ_τ.
func BenchmarkSegmentTag(b *testing.B) {
	tagger, err := NewTagger([]byte("bench-key"), 20)
	if err != nil {
		b.Fatal(err)
	}
	seg := make([]byte, 80)
	rand.New(rand.NewSource(1)).Read(seg)
	b.SetBytes(80)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tagger.Tag(seg, uint64(i), "bench-file")
	}
}

// benchSlabSegments is the slab the slab-form benchmarks run on: 4096
// default segments, 80-byte payloads behind 20-bit tags.
const benchSlabSegments = 4096

// benchSlab times fn on a freshly stamped default slab on each slab path
// the host has (taggerPaths): /vaes, the fused sixteen-lane kernel, and
// /portable, the four lanes through cipher.Block.
func benchSlab(b *testing.B, fn func(tg *Tagger, slab []byte, bad []bool)) {
	for _, path := range taggerPaths(b, []byte("bench-key"), 20) {
		b.Run(path.name, func(b *testing.B) {
			const payload = 80
			slab := make([]byte, benchSlabSegments*(payload+path.tg.Size()))
			rand.New(rand.NewSource(1)).Read(slab)
			path.tg.TagSlab(slab, payload, 0, "bench-file")
			bad := make([]bool, benchSlabSegments)
			b.SetBytes(int64(len(slab)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fn(path.tg, slab, bad)
			}
		})
	}
}

// BenchmarkTagSlab times stamping the tags of one default slab, the setup
// pipeline's form.
func BenchmarkTagSlab(b *testing.B) {
	benchSlab(b, func(tg *Tagger, slab []byte, _ []bool) { tg.TagSlab(slab, 80, 0, "bench-file") })
}

// BenchmarkVerifySlab times checking every tag of one default slab, the
// extractor's form.
func BenchmarkVerifySlab(b *testing.B) {
	benchSlab(b, func(tg *Tagger, slab []byte, bad []bool) { tg.VerifySlab(slab, 80, 0, "bench-file", bad) })
}

// BenchmarkChallengeDerivation times deriving 1000 challenge indices over
// the paper's 2 GB example (30 695 574 segments) from one nonce.
func BenchmarkChallengeDerivation(b *testing.B) {
	nonce := []byte("bench-nonce-0123")
	for i := 0; i < b.N; i++ {
		if _, err := ChallengeIndices(nonce, []byte("ctx"), 30695574, 1000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncryptCTRAt times AES-256-CTR over a 256 KiB chunk group under
// a 32-byte key, as the setup pipeline and the extractor run it, on each
// path the host has: /vaes, the sixteen-block kernel, and /stdlib, the
// standard library's stream.
func BenchmarkEncryptCTRAt(b *testing.B) {
	key := make([]byte, 32)
	rand.New(rand.NewSource(1)).Read(key)
	var iv [16]byte
	buf := make([]byte, 256<<10)
	for _, path := range ctrPaths(b, len(key)) {
		b.Run(path.name, func(b *testing.B) {
			b.SetBytes(int64(len(buf)))
			for i := 0; i < b.N; i++ {
				if err := xorCTRAt(key, &iv, buf, 0, path.kernel); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchSignMsg is about a transcript's size at the audit default, k = 20
// rounds of one segment each: what the device signs and the TPA verifies
// once per audit. Both sign its SHA-256 digest.
var benchSignMsg = make([]byte, 2048)

// BenchmarkSign times the device signing one transcript.
func BenchmarkSign(b *testing.B) {
	s, err := NewSigner()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := s.Sign(benchSignMsg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerify times the TPA checking one transcript signature.
func BenchmarkVerify(b *testing.B) {
	s, err := NewSigner()
	if err != nil {
		b.Fatal(err)
	}
	sig, err := s.Sign(benchSignMsg)
	if err != nil {
		b.Fatal(err)
	}
	pub := s.Public()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Verify(pub, benchSignMsg, sig); err != nil {
			b.Fatal(err)
		}
	}
}
