package store_test

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"

	"repro/internal/blockfile"
	"repro/internal/por"
	"repro/internal/store"
)

// damageSegments inverts one block in each of n seeded segments through
// the store's fault-injection seam.
func damageSegments(t *testing.T, st *store.Store, layout blockfile.Layout, seed int64, n int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	block := make([]byte, layout.BlockSize)
	for i := 0; i < n; i++ {
		off, err := layout.SegmentOffset(rng.Int63n(layout.Segments))
		if err != nil {
			t.Fatal(err)
		}
		off += int64(rng.Intn(layout.SegmentBlocks) * layout.BlockSize)
		if _, err := st.ReadAt(block, off); err != nil {
			t.Fatal(err)
		}
		for j := range block {
			block[j] ^= 0xff
		}
		if _, err := st.WriteAt(block, off); err != nil {
			t.Fatal(err)
		}
	}
}

// TestExtractStreamSeamEquivalence extracts every store twice — handed
// over as itself, so the extractor finds the batch gather seam where the
// platform has one, and wrapped as a bare io.ReaderAt, which hides it and
// forces the per-block ReadAt loop — and requires byte-identical output
// and identical errors: on a clean store, one damaged inside the
// Reed-Solomon budget and one damaged beyond it, sequential and parallel.
// The tiny shards make every chunk group straddle dozens of them, so the
// first and last block of every shard is gathered; the default-geometry
// case covers the 16-byte blocks and 255-block chunks production uses.
func TestExtractStreamSeamEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name      string
		params    blockfile.Params
		size      int
		shard     int64
		damageDiv int64 // one segment in damageDiv is damaged; 0 for none
		wantErr   error
	}{
		{name: "clean", params: fastParams, size: 200000, shard: 4096},
		{name: "damaged-in-budget", params: fastParams, size: 200000, shard: 4096, damageDiv: 2000},
		{name: "damaged-beyond-budget", params: fastParams, size: 200000, shard: 4096, damageDiv: 2, wantErr: por.ErrUnrecoverable},
		{name: "default-geometry-damaged", params: blockfile.DefaultParams(), size: 200000, shard: 32 << 10, damageDiv: 200},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := testData(t, tc.size)
			master := por.NewEncoder([]byte("seam-master")).WithParams(tc.params)
			dir := t.TempDir()
			layout, man := encodeToStore(t, dir, master, "f", data, store.Options{ShardTargetBytes: tc.shard})
			if len(man.Shards) < 8 {
				t.Fatalf("only %d shards: groups would not straddle many", len(man.Shards))
			}
			st, err := store.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if tc.damageDiv > 0 {
				damageSegments(t, st, layout, 11, int(layout.Segments/tc.damageDiv)+1)
			}
			for _, conc := range []int{1, 0, 8} {
				enc := master.WithConcurrency(conc)
				seam := por.NewMemTarget(layout.OrigBytes)
				seamErr := enc.ExtractStream("f", layout, st, seam)
				plain := por.NewMemTarget(layout.OrigBytes)
				plainErr := enc.ExtractStream("f", layout, struct{ io.ReaderAt }{st}, plain)

				if !errors.Is(seamErr, tc.wantErr) || !errors.Is(plainErr, tc.wantErr) {
					t.Fatalf("concurrency %d: errors %v (seam) and %v (ReadAt), want %v", conc, seamErr, plainErr, tc.wantErr)
				}
				if tc.wantErr != nil {
					if seamErr.Error() != plainErr.Error() {
						t.Fatalf("concurrency %d: seam error %q, ReadAt error %q", conc, seamErr, plainErr)
					}
					continue
				}
				if !bytes.Equal(seam.B, plain.B) {
					t.Fatalf("concurrency %d: output differs between the gather seam and the ReadAt loop", conc)
				}
				if !bytes.Equal(seam.B, data) {
					t.Fatalf("concurrency %d: extraction does not reproduce the input", conc)
				}
			}
		})
	}
}
