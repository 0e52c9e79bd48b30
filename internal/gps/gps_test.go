package gps

import (
	"testing"

	"repro/internal/geo"
)

func TestFixHonest(t *testing.T) {
	r := &Receiver{True: geo.Brisbane}
	if got := r.Fix(); got != geo.Brisbane {
		t.Fatalf("fix %v", got)
	}
}

func TestFixSpoofed(t *testing.T) {
	spoof := geo.Perth
	r := &Receiver{True: geo.Brisbane, Spoof: &spoof}
	if got := r.Fix(); got != geo.Perth {
		t.Fatalf("spoofed fix %v", got)
	}
}
