package blockfile

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestDefaultParamsMatchPaper(t *testing.T) {
	p := DefaultParams()
	if p.BlockSize != 16 {
		t.Errorf("block size %d, want 16 bytes (128 bits)", p.BlockSize)
	}
	if p.ChunkData != 223 || p.ChunkTotal != 255 {
		t.Errorf("chunk %d/%d, want 223/255", p.ChunkData, p.ChunkTotal)
	}
	if p.SegmentBlocks != 5 || p.TagBits != 20 {
		t.Errorf("segment %d blocks / %d tag bits, want 5 / 20", p.SegmentBlocks, p.TagBits)
	}
	// Paper: segment size = 128·5 + 20 = 660 bits. Serialised we round
	// the 20-bit tag to 3 bytes: 83 bytes = 664 bits.
	if p.SegmentSize() != 83 {
		t.Errorf("segment size %d bytes, want 83", p.SegmentSize())
	}
}

func TestValidate(t *testing.T) {
	bad := []Params{
		{BlockSize: 0, ChunkData: 223, ChunkTotal: 255, SegmentBlocks: 5, TagBits: 20},
		{BlockSize: 16, ChunkData: 0, ChunkTotal: 255, SegmentBlocks: 5, TagBits: 20},
		{BlockSize: 16, ChunkData: 255, ChunkTotal: 255, SegmentBlocks: 5, TagBits: 20},
		{BlockSize: 16, ChunkData: 223, ChunkTotal: 256, SegmentBlocks: 5, TagBits: 20},
		{BlockSize: 16, ChunkData: 223, ChunkTotal: 255, SegmentBlocks: 0, TagBits: 20},
		{BlockSize: 16, ChunkData: 223, ChunkTotal: 255, SegmentBlocks: 5, TagBits: 4},
		{BlockSize: 16, ChunkData: 223, ChunkTotal: 255, SegmentBlocks: 5, TagBits: 129}, // a CMAC has 128
		{BlockSize: 16, ChunkData: 223, ChunkTotal: 255, SegmentBlocks: 5, TagBits: 256},
	}
	for i, p := range bad {
		if err := p.Validate(); !errors.Is(err, ErrBadParams) {
			t.Errorf("case %d: got %v, want ErrBadParams", i, err)
		}
	}
	widest := DefaultParams()
	widest.TagBits = 128
	if err := widest.Validate(); err != nil {
		t.Errorf("128-bit tags rejected: %v", err)
	}
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("defaults invalid: %v", err)
	}
}

func TestLayoutPaperExample(t *testing.T) {
	// §V-B example: a 2 GB file with 128-bit blocks has b = 2^27 blocks.
	l, err := NewLayout(DefaultParams(), 2<<30)
	if err != nil {
		t.Fatal(err)
	}
	if l.DataBlocks != 1<<27 {
		t.Fatalf("data blocks %d, want 2^27", l.DataBlocks)
	}
	// Exact (255/223) expansion: the paper approximates 153,008,209
	// blocks via ×1.14; exact arithmetic gives chunks·255.
	wantECC := l.Chunks * 255
	if l.ECCBlocks != wantECC {
		t.Fatalf("ECC blocks %d, want %d", l.ECCBlocks, wantECC)
	}
	ratio := float64(l.ECCBlocks) / float64(l.DataBlocks)
	if math.Abs(ratio-255.0/223.0) > 0.0001 {
		t.Fatalf("ECC ratio %.5f, want 255/223", ratio)
	}
	// Paper's ballpark: within 0.5% of their ×1.14 figure.
	if math.Abs(float64(l.ECCBlocks)-153008209)/153008209 > 0.005 {
		t.Fatalf("ECC blocks %d not within 0.5%% of the paper's 153,008,209", l.ECCBlocks)
	}
}

func TestOverheadsMatchPaperClaims(t *testing.T) {
	l, err := NewLayout(DefaultParams(), 2<<30)
	if err != nil {
		t.Fatal(err)
	}
	// ECC overhead ≈ 14.3% ("about 14%").
	if got := l.ECCOverhead(); math.Abs(got-0.1435) > 0.001 {
		t.Errorf("ECC overhead %.4f, want ≈0.1435", got)
	}
	// MAC overhead 20/(5·128) = 3.125% (paper rounds to 2.5%).
	if got := l.MACOverhead(); math.Abs(got-0.03125) > 1e-9 {
		t.Errorf("MAC overhead %.5f, want 0.03125", got)
	}
	// Total overhead ≈ 18% with byte-rounded tags (paper: about 16.5%
	// with bit-packed 20-bit tags).
	if got := l.TotalOverhead(); got < 0.16 || got > 0.20 {
		t.Errorf("total overhead %.4f outside [0.16, 0.20]", got)
	}
}

func TestLayoutSmallFiles(t *testing.T) {
	for _, size := range []int64{0, 1, 15, 16, 17, 3568, 3569} {
		l, err := NewLayout(DefaultParams(), size)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if l.PaddedBlocks%int64(l.ChunkData) != 0 {
			t.Errorf("size %d: padded blocks %d not a chunk multiple", size, l.PaddedBlocks)
		}
		if l.TotalBlocks%int64(l.SegmentBlocks) != 0 {
			t.Errorf("size %d: total blocks %d not a segment multiple", size, l.TotalBlocks)
		}
		if l.Segments*int64(l.SegmentSize()) != l.EncodedBytes {
			t.Errorf("size %d: encoded bytes inconsistent", size)
		}
		if l.DataBlocks < 1 {
			t.Errorf("size %d: zero data blocks", size)
		}
	}
}

func TestLayoutRejectsNegativeSize(t *testing.T) {
	if _, err := NewLayout(DefaultParams(), -1); !errors.Is(err, ErrBadParams) {
		t.Fatalf("got %v", err)
	}
}

func TestSegmentOffset(t *testing.T) {
	l, _ := NewLayout(DefaultParams(), 100000)
	off, err := l.SegmentOffset(0)
	if err != nil || off != 0 {
		t.Fatalf("segment 0 at %d err %v", off, err)
	}
	off, err = l.SegmentOffset(3)
	if err != nil || off != int64(3*l.SegmentSize()) {
		t.Fatalf("segment 3 at %d err %v", off, err)
	}
	if _, err := l.SegmentOffset(-1); err == nil {
		t.Error("negative segment accepted")
	}
	if _, err := l.SegmentOffset(l.Segments); err == nil {
		t.Error("out-of-range segment accepted")
	}
}

func TestStoredBlockOffset(t *testing.T) {
	for _, size := range []int64{0, 100, 100000} {
		l, err := NewLayout(DefaultParams(), size)
		if err != nil {
			t.Fatal(err)
		}
		// Walking every permuted position segment by segment must land on
		// the segment payloads exactly, skipping each embedded tag.
		for d := int64(0); d < l.TotalBlocks; d++ {
			seg := d / int64(l.SegmentBlocks)
			within := d % int64(l.SegmentBlocks)
			want := seg*int64(l.SegmentSize()) + within*int64(l.BlockSize)
			if got := l.StoredBlockOffset(d); got != want {
				t.Fatalf("size %d: StoredBlockOffset(%d)=%d, want %d", size, d, got, want)
			}
			if d > 100 {
				d += l.TotalBlocks / 37 // sample large layouts instead of walking all
			}
		}
		last := l.StoredBlockOffset(l.TotalBlocks-1) + int64(l.BlockSize) + int64(l.TagSize())
		if last != l.EncodedBytes {
			t.Fatalf("size %d: last block ends at %d, encoded bytes %d", size, last, l.EncodedBytes)
		}
	}
}

// TestStoredBlockOffsetSteps states StoredBlockOffset as a walk — it is
// the reference the batch plan in por is checked against, so it gets a
// statement of its own: from one permuted position to the next the offset
// grows by one block, plus one tag when the step leaves a segment, and a
// segment's first block sits at the segment's offset. Geometries are synthetic (the arithmetic
// reads only Params), which reaches indices either side of 2³² without a
// 64 GiB file.
func TestStoredBlockOffsetSteps(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, v := range []int{1, 2, 5, 255} {
		for _, bs := range []int{1, 16, 2 << 20} {
			l := Layout{Params: Params{BlockSize: bs, ChunkData: 223, ChunkTotal: 255, SegmentBlocks: v, TagBits: 8 + rng.Intn(121)}}
			if err := l.Params.Validate(); err != nil {
				t.Fatal(err)
			}
			for _, around := range []int64{1, int64(v), 1 << 32, 1<<32 - 1<<32%int64(v), rng.Int63n(1 << 40)} {
				for d := around - min(around, 3); d < around+int64(v)+3; d++ {
					step := int64(bs)
					if (d+1)%int64(v) == 0 {
						step += int64(l.TagSize())
					}
					if got := l.StoredBlockOffset(d+1) - l.StoredBlockOffset(d); got != step {
						t.Fatalf("v=%d bs=%d: offset(%d) - offset(%d) = %d, want %d", v, bs, d+1, d, got, step)
					}
					if d%int64(v) == 0 && l.StoredBlockOffset(d) != d/int64(v)*int64(l.SegmentSize()) {
						t.Fatalf("v=%d bs=%d: first block of segment %d at %d", v, bs, d/int64(v), l.StoredBlockOffset(d))
					}
				}
			}
		}
	}
}

func TestChunkAndSegmentByteHelpers(t *testing.T) {
	l, _ := NewLayout(DefaultParams(), 100000)
	if got, want := l.ChunkDataBytes(), l.ChunkData*l.BlockSize; got != want {
		t.Fatalf("ChunkDataBytes=%d want %d", got, want)
	}
	if got, want := l.ChunkTotalBytes(), l.ChunkTotal*l.BlockSize; got != want {
		t.Fatalf("ChunkTotalBytes=%d want %d", got, want)
	}
	if got, want := l.SegmentPayloadBytes(), l.SegmentBlocks*l.BlockSize; got != want {
		t.Fatalf("SegmentPayloadBytes=%d want %d", got, want)
	}
}
