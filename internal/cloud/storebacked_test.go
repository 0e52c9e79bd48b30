package cloud

import (
	"bytes"
	"testing"

	"repro/internal/store"
)

// TestSiteServesFromPersistentStore pins the prover read seam: a site
// whose file bytes come from a reopened internal/store.Store must serve
// exactly the segments an in-memory site serves, and corruption injected
// through the disk seam must land in the shard files (so a later MAC
// check rejects it).
func TestSiteServesFromPersistentStore(t *testing.T) {
	enc, ef := prepared(t)
	dir := t.TempDir()
	w, err := store.Create(dir, ef.FileID, ef.Layout, store.Options{ShardTargetBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := enc.EncodeStream(ef.FileID, bytes.NewReader(bytes.Repeat([]byte("cloud-data-"), 1000)), ef.Layout.OrigBytes, w); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	w.Close()

	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	site := NewSite(brisbaneDC(), 1)
	site.StoreOn(st.FileID(), st.Layout(), st)

	layout, err := site.Layout(ef.FileID)
	if err != nil {
		t.Fatal(err)
	}
	if layout.EncodedBytes != ef.Layout.EncodedBytes {
		t.Fatalf("layout mismatch: %d vs %d encoded bytes", layout.EncodedBytes, ef.Layout.EncodedBytes)
	}
	segSize := int64(layout.SegmentSize())
	for _, i := range []int64{0, 7, layout.Segments - 1} {
		seg, _, err := site.ReadSegment(ef.FileID, i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(seg, ef.Data[i*segSize:(i+1)*segSize]) {
			t.Fatalf("segment %d served from store differs from in-memory encode", i)
		}
		if err := verifySegment(t, enc, ef.FileID, layout, i, seg); err != nil {
			t.Fatalf("segment %d tag: %v", i, err)
		}
	}

	// Corruption goes through the disk seam into the shard files.
	if err := site.Corrupt(ef.FileID, 0, layout.SegmentSize()); err != nil {
		t.Fatal(err)
	}
	seg, _, err := site.ReadSegment(ef.FileID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := verifySegment(t, enc, ef.FileID, layout, 0, seg); err == nil {
		t.Fatal("corrupted store-backed segment still verifies")
	}
	// And the committed checksum now disagrees with the shard bytes.
	if err := st.Verify(); err == nil {
		t.Fatal("store Verify missed injected corruption")
	}
}
