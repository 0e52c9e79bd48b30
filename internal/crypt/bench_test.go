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
