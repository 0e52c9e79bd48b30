package por

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/blockfile"
)

// TestEncodePinned pins the bytes Encode writes: the SHA-256 of a seeded
// 1 MiB file encoded under a fixed master key and file ID, for the
// paper's parameters and for 4-byte blocks under an RS(43, 30) code,
// whose 13 parity rows are not a multiple of four. A change to any stage
// of the pipeline (RS, CTR, PRP, tags, placement) moves a digest, and a
// store written before the change would no longer read after it.
func TestEncodePinned(t *testing.T) {
	file := testFile(34, 1<<20)
	for _, c := range []struct {
		name   string
		params blockfile.Params
		want   string
	}{
		{"default", blockfile.DefaultParams(), "b000382a5bf83605cb51033e28ffa7fc497081ff2d24c2d059b1f53d6dc578da"},
		{"bs4-rs43-30", blockfile.Params{BlockSize: 4, ChunkData: 30, ChunkTotal: 43, SegmentBlocks: 2, TagBits: 32}, "9e339b388b9692e5ebdd8d0d64d0c4fad2348bef83aae5e6ea3acf060466d4a6"},
	} {
		enc, err := NewEncoder([]byte("pinned-master-secret")).WithParams(c.params).Encode("pinned-file", file)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sum := sha256.Sum256(enc.Data)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: Encode output SHA-256 %s, want %s", c.name, got, c.want)
		}
	}
}
