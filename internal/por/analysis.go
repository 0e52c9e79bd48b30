package por

import (
	"repro/internal/blockfile"
	"repro/internal/stats"
)

// IrretrievabilityBound bounds the probability that corrupting a fraction
// of blocks uniformly at random destroys the file despite error
// correction. A chunk is lost when more than t = (n-k)/2 of its n blocks
// are corrupted (blind decoding; erasure hints double the budget). The
// bound is the union bound numChunks · P[Bin(n, f) > t].
//
// For the paper's example — 2 GB file, 0.5% block corruption — this is far
// below the quoted "less than 1 in 200,000" (§V-C a), confirming the
// paper's claim is conservative.
func IrretrievabilityBound(layout blockfile.Layout, blockCorruptFraction float64) float64 {
	t := (layout.ChunkTotal - layout.ChunkData) / 2
	perChunk := stats.BinomTail(layout.ChunkTotal, t+1, blockCorruptFraction)
	b := perChunk * float64(layout.Chunks)
	if b > 1 {
		return 1
	}
	return b
}

// PaperExampleLayout returns the layout of the paper's §V-B worked
// example: a 2 GB file under default parameters.
func PaperExampleLayout() (blockfile.Layout, error) {
	return blockfile.NewLayout(blockfile.DefaultParams(), 2<<30)
}
