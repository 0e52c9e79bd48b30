package gps

import (
	"math/rand"
	"testing"

	"repro/internal/geo"
)

func TestFixHonest(t *testing.T) {
	r := &Receiver{True: geo.Brisbane}
	if got := r.Fix(); got != geo.Brisbane {
		t.Fatalf("fix %v", got)
	}
}

func TestFixNoiseBounded(t *testing.T) {
	r := &Receiver{True: geo.Brisbane, NoiseKm: 1, Rng: rand.New(rand.NewSource(1))}
	for i := 0; i < 100; i++ {
		fix := r.Fix()
		if d := fix.DistanceKm(geo.Brisbane); d > 2 {
			t.Fatalf("noisy fix %.2f km from truth", d)
		}
	}
}

func TestFixSpoofed(t *testing.T) {
	spoof := geo.Perth
	r := &Receiver{True: geo.Brisbane, NoiseKm: 1, Spoof: &spoof, Rng: rand.New(rand.NewSource(1))}
	if got := r.Fix(); got != geo.Perth {
		t.Fatalf("spoofed fix %v", got)
	}
}
