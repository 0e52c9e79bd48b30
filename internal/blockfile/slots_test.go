package blockfile

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestSlotGeomMatchesStoredBlockOffset checks the slot map against
// StoredBlockOffset at every slot of small layouts — block sizes 1, 4, 16
// and 32, v ∈ {1, 3, 64} — cut into views of one segment, of several (the
// last one short) and of the whole file, as Views cuts an image below
// MaxViewBytes. Place must then put every block of a shuffled batch at
// that offset, and Gather must read the batch back, across the 16-byte
// gather's strip seams where the layout has that many slots.
func TestSlotGeomMatchesStoredBlockOffset(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, bs := range []int{1, 4, 16, 32} {
		for _, v := range []int{1, 3, 64} {
			p := Params{BlockSize: bs, ChunkData: 11, ChunkTotal: 15, SegmentBlocks: v, TagBits: 32}
			l, err := NewLayout(p, 5000)
			if err != nil {
				t.Fatal(err)
			}
			seg := int64(l.SegmentSize())
			for _, segsPerView := range []int64{1, 7, l.Segments} {
				img := make([]byte, l.EncodedBytes)
				viewBytes := segsPerView * seg
				g := l.SlotGeom(viewBytes)
				var views [][]byte
				for off := int64(0); off < l.EncodedBytes; off += viewBytes {
					views = append(views, img[off:min(off+viewBytes, l.EncodedBytes)])
				}
				if segsPerView == l.Segments {
					g, views = l.Views(img)
				}
				for b := int64(0); b < l.TotalBlocks; b++ {
					view, rel := g.locate(uint64(b))
					at := int64(g.offset(rel))
					if got, want := int64(view)*viewBytes+at, l.StoredBlockOffset(b); got != want {
						t.Fatalf("bs=%d v=%d view=%d segments: slot %d at %d (view %d, offset %d), want %d", bs, v, segsPerView, b, got, view, at, want)
					}
					if int(view) >= len(views) || at+int64(bs) > int64(len(views[view])) {
						t.Fatalf("bs=%d v=%d view=%d segments: slot %d overruns view %d", bs, v, segsPerView, b, view)
					}
				}

				slots := make([]uint64, l.TotalBlocks)
				for j, b := range rng.Perm(len(slots)) {
					slots[j] = uint64(b)
				}
				blocks := make([]byte, len(slots)*bs)
				rng.Read(blocks)
				seen := make([]uint64, (l.TotalBlocks+63)/64)
				if j := g.Place(views, blocks, slots, seen); j != -1 {
					t.Fatalf("bs=%d v=%d view=%d segments: Place stopped at %d of a batch with no slot twice", bs, v, segsPerView, j)
				}
				want := make([]byte, l.EncodedBytes)
				for j, b := range slots {
					copy(want[l.StoredBlockOffset(int64(b)):], blocks[j*bs:(j+1)*bs])
				}
				if !bytes.Equal(img, want) {
					t.Fatalf("bs=%d v=%d view=%d segments: placed image differs from per-block placement", bs, v, segsPerView)
				}
				back := make([]byte, len(blocks))
				g.Gather(back, views, slots)
				if !bytes.Equal(back, blocks) {
					t.Fatalf("bs=%d v=%d view=%d segments: gathered blocks differ from the placed ones", bs, v, segsPerView)
				}
				// A slot already in the bitmap stops the batch at once; one
				// repeated inside a fresh batch stops it at the repeat,
				// with the blocks before it stored.
				if j := g.Place(views, blocks[:3*bs], slots[:3], seen); j != 0 {
					t.Fatalf("bs=%d v=%d: placing a placed slot stopped at %d, want 0", bs, v, j)
				}
				clear(img)
				if j := g.Place(views, blocks[:3*bs], []uint64{slots[0], slots[1], slots[0]}, make([]uint64, len(seen))); j != 2 {
					t.Fatalf("bs=%d v=%d: a batch placing slot %d twice stopped at %d, want 2", bs, v, slots[0], j)
				}
				for k := 0; k < 2; k++ {
					if at := l.StoredBlockOffset(int64(slots[k])); !bytes.Equal(img[at:at+int64(bs)], blocks[k*bs:(k+1)*bs]) {
						t.Fatalf("bs=%d v=%d: block %d before the repeat not stored", bs, v, k)
					}
				}
			}
		}
	}
	if l, err := NewLayout(DefaultParams(), 1000); err != nil {
		t.Fatal(err)
	} else if _, views := l.Views(nil); views != nil {
		t.Fatalf("no image cut into %d views", len(views))
	}
}

// TestSlotGeomBeyond32Bits checks the 64-bit branch of locate, which only a
// file of more than 2³² blocks (64 GiB of the paper's blocks) reaches, at
// slots 2³²−1, 2³² and 2³²+1, by arithmetic alone: the layout is only
// sized, nothing is allocated. The views are one segment long and as long
// as Views makes them for such a file.
func TestSlotGeomBeyond32Bits(t *testing.T) {
	l, err := NewLayout(DefaultParams(), 1<<37)
	if err != nil {
		t.Fatal(err)
	}
	if l.TotalBlocks <= 1<<32+1 {
		t.Fatalf("layout has %d slots, want more than 2³²+1", l.TotalBlocks)
	}
	for _, viewBytes := range []int64{int64(l.SegmentSize()), l.AlignToSegments(MaxViewBytes)} {
		g := l.SlotGeom(viewBytes)
		for _, b := range []uint64{1<<32 - 1, 1 << 32, 1<<32 + 1} {
			view, rel := g.locate(b)
			at := int64(g.offset(rel))
			if got, want := int64(view)*viewBytes+at, l.StoredBlockOffset(int64(b)); got != want {
				t.Errorf("%d-byte views: slot %d at %d (view %d, offset %d), want %d", viewBytes, b, got, view, at, want)
			}
			if at+int64(l.BlockSize) > viewBytes {
				t.Errorf("%d-byte views: slot %d overruns its view at offset %d", viewBytes, b, at)
			}
		}
	}
}
