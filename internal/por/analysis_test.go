package por

import (
	"math"
	"testing"

	"repro/internal/blockfile"
)

func TestIrretrievabilityBoundPaperClaim(t *testing.T) {
	// §V-C a: 0.5% block corruption on the 2 GB example must make the
	// file irretrievable with probability below 1/200,000.
	layout, err := PaperExampleLayout()
	if err != nil {
		t.Fatal(err)
	}
	bound := IrretrievabilityBound(layout, 0.005)
	if bound >= 1.0/200000 {
		t.Fatalf("bound %.3e not below 1/200,000", bound)
	}
}

func TestIrretrievabilityBoundMonotone(t *testing.T) {
	layout, _ := PaperExampleLayout()
	prev := 0.0
	for _, f := range []float64{0.001, 0.005, 0.02, 0.05, 0.08} {
		b := IrretrievabilityBound(layout, f)
		if b < prev-1e-15 {
			t.Fatalf("bound not monotone at f=%v", f)
		}
		prev = b
	}
}

func TestIrretrievabilityBoundSaturates(t *testing.T) {
	layout, _ := PaperExampleLayout()
	if b := IrretrievabilityBound(layout, 0.5); b != 1 {
		t.Fatalf("heavy corruption bound %v, want 1 (clamped)", b)
	}
}

func TestPaperExampleLayoutShape(t *testing.T) {
	layout, err := PaperExampleLayout()
	if err != nil {
		t.Fatal(err)
	}
	if layout.OrigBytes != 2<<30 {
		t.Fatalf("size %d, want 2 GiB", layout.OrigBytes)
	}
	if layout.DataBlocks != 1<<27 {
		t.Fatalf("blocks %d, want 2^27", layout.DataBlocks)
	}
}

func TestIrretrievabilityCustomLayout(t *testing.T) {
	// A tiny layout where the bound is computable by hand: RS(15,11),
	// t=2, one chunk. P(X>=3), X~Bin(15, f).
	p := blockfile.Params{BlockSize: 4, ChunkData: 11, ChunkTotal: 15, SegmentBlocks: 2, TagBits: 32}
	layout, err := blockfile.NewLayout(p, 44) // exactly one chunk
	if err != nil {
		t.Fatal(err)
	}
	if layout.Chunks != 1 {
		t.Fatalf("chunks=%d, want 1", layout.Chunks)
	}
	got := IrretrievabilityBound(layout, 0.1)
	// P(Bin(15,0.1)>=3) ≈ 0.1841.
	if math.Abs(got-0.1841) > 0.001 {
		t.Fatalf("bound %.4f, want ≈0.1841", got)
	}
}
