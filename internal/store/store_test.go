package store_test

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/blockfile"
	"repro/internal/por"
	"repro/internal/store"
)

// fastParams keeps test files small while still spanning many chunks and
// segments.
var fastParams = blockfile.Params{BlockSize: 4, ChunkData: 11, ChunkTotal: 15, SegmentBlocks: 2, TagBits: 32}

func testData(t testing.TB, n int) []byte {
	t.Helper()
	d := make([]byte, n)
	rand.New(rand.NewSource(int64(n))).Read(d)
	return d
}

// encodeToStore runs a full streaming encode into a fresh store writer
// and commits it.
func encodeToStore(t testing.TB, dir string, enc *por.Encoder, fileID string, data []byte, opts store.Options) (blockfile.Layout, store.Manifest) {
	t.Helper()
	layout, err := blockfile.NewLayout(enc.Params(), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	w, err := store.Create(dir, fileID, layout, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := enc.EncodeStream(fileID, bytes.NewReader(data), int64(len(data)), w); err != nil {
		t.Fatalf("encode into store: %v", err)
	}
	man, err := w.Commit()
	if err != nil {
		t.Fatalf("commit: %v", err)
	}
	return layout, man
}

// TestStoreByteIdentity pins the central placer property: the bytes a
// store-backed encode materialises — blocks stored through the shard
// mappings, tags stamped in each mapping in place — are identical to the
// in-memory encode's, at sequential, NumCPU and parallel concurrency, in
// the test geometry and the paper's, and over as many as some fifty
// small shards.
func TestStoreByteIdentity(t *testing.T) {
	data := testData(t, 40000)
	for _, tc := range []struct {
		name   string
		conc   int
		params blockfile.Params
		opts   store.Options
	}{
		{"seq-default", 1, fastParams, store.Options{}},
		{"par-default", 8, fastParams, store.Options{}},
		{"seq-tiny-window", 1, fastParams, store.Options{ShardTargetBytes: 4096}},
		{"par-tiny-window", 8, fastParams, store.Options{ShardTargetBytes: 4096}},
		{"numcpu-50-shards", 0, fastParams, store.Options{ShardTargetBytes: 1700}},
		{"seq-paper-geometry", 1, blockfile.DefaultParams(), store.Options{ShardTargetBytes: 1000}},
		{"numcpu-paper-geometry", 0, blockfile.DefaultParams(), store.Options{}},
		{"par-paper-geometry", 8, blockfile.DefaultParams(), store.Options{ShardTargetBytes: 1000}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			enc := por.NewEncoder([]byte("store-master")).WithParams(tc.params).WithConcurrency(tc.conc)
			want, err := enc.Encode("f", data)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			layout, man := encodeToStore(t, dir, enc, "f", data, tc.opts)
			if man.Epoch != 2 {
				t.Fatalf("fresh committed store at epoch %d, want 2", man.Epoch)
			}
			st, err := store.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if err := st.Verify(); err != nil {
				t.Fatalf("verify: %v", err)
			}
			got := make([]byte, layout.EncodedBytes)
			if _, err := st.ReadAt(got, 0); err != nil && err != io.EOF {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want.Data) {
				t.Fatalf("store bytes differ from in-memory encode")
			}
			// Segment reads line up with the flat encoding.
			segSize := layout.SegmentSize()
			for _, i := range []int64{0, 1, layout.Segments / 2, layout.Segments - 1} {
				seg, err := st.ReadSegment(i)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(seg, want.Data[i*int64(segSize):(i+1)*int64(segSize)]) {
					t.Fatalf("segment %d differs", i)
				}
			}
			// And the extractor can recover the plaintext straight from
			// the store.
			out := por.NewMemTarget(layout.OrigBytes)
			if err := enc.ExtractStream("f", layout, st, out); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.B, data) {
				t.Fatal("extract from store does not round-trip")
			}
		})
	}
}

// TestStoreOpenFailures covers the non-crash failure modes: no manifest,
// garbage manifest, shard size mismatch, and a store of another format
// version — which is stale, not corrupt, and says so.
func TestStoreOpenFailures(t *testing.T) {
	if _, err := store.Open(t.TempDir()); !errors.Is(err, store.ErrNoManifest) {
		t.Fatalf("empty dir: err = %v, want ErrNoManifest", err)
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Open(dir); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("garbage manifest: err = %v, want ErrCorrupt", err)
	}

	data := testData(t, 9000)
	enc := por.NewEncoder([]byte("trunc-master")).WithParams(fastParams)
	dir2 := t.TempDir()
	encodeToStore(t, dir2, enc, "f", data, store.Options{ShardTargetBytes: 4096})
	// Truncate a shard behind the manifest's back.
	if err := os.Truncate(filepath.Join(dir2, "shard-00001.bin"), 10); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Open(dir2); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("truncated shard: err = %v, want ErrCorrupt", err)
	}

	// A directory the previous format's build committed: intact, and
	// unreadable. There is no reader for it; encoding into the same
	// directory again is the way forward and must work.
	dir3 := t.TempDir()
	encodeToStore(t, dir3, enc, "f", data, store.Options{ShardTargetBytes: 4096})
	manPath := filepath.Join(dir3, "manifest.json")
	man, err := os.ReadFile(manPath)
	if err != nil {
		t.Fatal(err)
	}
	v1 := bytes.Replace(man, []byte(`"version": 2`), []byte(`"version": 1`), 1)
	if bytes.Equal(v1, man) {
		t.Fatalf("manifest does not say version 2:\n%s", man)
	}
	if err := os.WriteFile(manPath, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = store.Open(dir3)
	if !errors.Is(err, store.ErrFormatVersion) || errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("v1 store: err = %v, want ErrFormatVersion and not ErrCorrupt", err)
	}
	for _, want := range []string{"version 1", "only version 2", "re-run geoprep"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("v1 store: error %q does not say %q", err, want)
		}
	}
	encodeToStore(t, dir3, enc, "f", data, store.Options{ShardTargetBytes: 4096})
	st, err := store.Open(dir3)
	if err != nil {
		t.Fatalf("store re-encoded over a v1 directory: %v", err)
	}
	st.Close()
}

// TestStoreVerifyCatchesBitRot flips one byte of one shard after commit
// and expects Verify (not Open, which only checks sizes) to notice.
func TestStoreVerifyCatchesBitRot(t *testing.T) {
	data := testData(t, 9000)
	enc := por.NewEncoder([]byte("rot-master")).WithParams(fastParams)
	dir := t.TempDir()
	encodeToStore(t, dir, enc, "f", data, store.Options{ShardTargetBytes: 4096})

	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Verify(); err != nil {
		t.Fatalf("verify of clean store: %v", err)
	}
	// Damage one byte through the store's own corruption seam.
	b := []byte{0xff}
	orig := make([]byte, 1)
	if _, err := st.ReadAt(orig, 4097); err != nil {
		t.Fatal(err)
	}
	b[0] = orig[0] ^ 0x40
	if _, err := st.WriteAt(b, 4097); err != nil {
		t.Fatal(err)
	}
	if err := st.Verify(); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("verify of damaged store: err = %v, want ErrCorrupt", err)
	}
}

// TestStoreReadsRefuseTruncatedShard: a shard cut short after Open must
// read as corruption, not as a zero-filled segment with a nil error —
// through ReadSegment and ReadAt alike — while segments
// before the cut are still served intact.
func TestStoreReadsRefuseTruncatedShard(t *testing.T) {
	data := testData(t, 9000)
	enc := por.NewEncoder([]byte("cut-master")).WithParams(fastParams)
	dir := t.TempDir()
	layout, man := encodeToStore(t, dir, enc, "f", data, store.Options{ShardTargetBytes: 4096})
	want, err := enc.Encode("f", data)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	segSize := int64(layout.SegmentSize())
	cut := man.ShardBytes / 2 / segSize * segSize // inside shard 1, on a segment boundary
	if err := os.Truncate(filepath.Join(dir, "shard-00001.bin"), cut); err != nil {
		t.Fatal(err)
	}
	first := (man.ShardBytes + cut) / segSize // shard 1's first missing segment
	for _, i := range []int64{first, first + 1, 2*man.ShardBytes/segSize - 1} {
		if seg, err := st.ReadSegment(i); !errors.Is(err, store.ErrCorrupt) {
			t.Fatalf("ReadSegment(%d) past the cut: %x, err = %v, want ErrCorrupt", i, seg, err)
		}
	}
	p := make([]byte, 2*segSize)
	if _, err := st.ReadAt(p, first*segSize-segSize); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("ReadAt across the cut: err = %v, want ErrCorrupt", err)
	}
	for _, i := range []int64{0, man.ShardBytes/segSize + 1, first - 1, 2 * man.ShardBytes / segSize} {
		seg, err := st.ReadSegment(i)
		if err != nil {
			t.Fatalf("ReadSegment(%d) before the cut or in another shard: %v", i, err)
		}
		if !bytes.Equal(seg, want.Data[i*segSize:(i+1)*segSize]) {
			t.Fatalf("segment %d differs", i)
		}
	}
	// A read that runs past the payload's end still gets io.EOF.
	if n, err := st.ReadAt(p, layout.EncodedBytes-segSize); n != int(segSize) || err != io.EOF {
		t.Fatalf("ReadAt over the payload's end: n = %d, err = %v, want %d and io.EOF", n, err, segSize)
	}
}

// TestStoreConcurrentReads hammers ReadSegment from many goroutines so
// the per-shard lock discipline runs under -race.
func TestStoreConcurrentReads(t *testing.T) {
	data := testData(t, 30000)
	enc := por.NewEncoder([]byte("conc-master")).WithParams(fastParams).WithConcurrency(4)
	dir := t.TempDir()
	layout, _ := encodeToStore(t, dir, enc, "f", data, store.Options{ShardTargetBytes: 4096})
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	want, err := enc.Encode("f", data)
	if err != nil {
		t.Fatal(err)
	}
	segSize := int64(layout.SegmentSize())
	indices := make([]int64, 256)
	rng := rand.New(rand.NewSource(7))
	for i := range indices {
		indices[i] = rng.Int63n(layout.Segments)
	}
	segs := make([][]byte, len(indices))
	errs := make([]error, len(indices))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := w; j < len(indices); j += 8 {
				segs[j], errs[j] = st.ReadSegment(indices[j])
			}
		}(w)
	}
	wg.Wait()
	for j, i := range indices {
		if errs[j] != nil {
			t.Fatalf("concurrent segment read %d (index %d): %v", j, i, errs[j])
		}
		if !bytes.Equal(segs[j], want.Data[i*segSize:(i+1)*segSize]) {
			t.Fatalf("concurrent segment read %d (index %d) differs", j, i)
		}
	}
}

// TestStoreCreateSweepsStaleShards: re-creating a store with a smaller
// geometry in the same directory must not leave the old, larger
// geometry's shard files behind as verified-looking dead data, nor any
// staging log — at whatever index — that an interrupted encode of an
// earlier build (one that staged placements in per-shard logs) left.
func TestStoreCreateSweepsStaleShards(t *testing.T) {
	big := testData(t, 40000)
	small := testData(t, 4000)
	enc := por.NewEncoder([]byte("sweep-master")).WithParams(fastParams)
	dir := t.TempDir()
	encodeToStore(t, dir, enc, "f", big, store.Options{ShardTargetBytes: 4096})
	bigShards, _ := filepath.Glob(filepath.Join(dir, "shard-*.bin"))
	if len(bigShards) < 3 {
		t.Fatalf("setup: want several shards, got %d", len(bigShards))
	}
	for _, log := range []string{"shard-00000.log", "shard-00002.log"} {
		if err := os.WriteFile(filepath.Join(dir, log), []byte("staged"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, man := encodeToStore(t, dir, enc, "f", small, store.Options{ShardTargetBytes: 4096})
	files, _ := filepath.Glob(filepath.Join(dir, "shard-*"))
	if len(files) != len(man.Shards) {
		t.Fatalf("dir holds %d shard files after re-encode, manifest lists %d: %v", len(files), len(man.Shards), files)
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestStoreCreateRejectsOversizedShards: staging records address within
// a shard through a uint32, so an explicit shard target beyond the hard
// cap must be rejected up front, not wrap at placement time.
func TestStoreCreateRejectsOversizedShards(t *testing.T) {
	layout, err := blockfile.NewLayout(fastParams, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Create(t.TempDir(), "f", layout, store.Options{ShardTargetBytes: 3 << 30}); err == nil {
		t.Fatal("Create accepted a 3 GiB shard target")
	}
}

// TestStoreGiantBlockSize: blocks larger than Create's zero-fill writes
// (2 MiB against 1 MiB), one to a segment, are placed, tagged, committed
// and extracted like the paper's 16-byte ones.
func TestStoreGiantBlockSize(t *testing.T) {
	giant := blockfile.Params{BlockSize: 2 << 20, ChunkData: 1, ChunkTotal: 2, SegmentBlocks: 1, TagBits: 32}
	data := testData(t, 100)
	enc := por.NewEncoder([]byte("giant-master")).WithParams(giant)
	dir := t.TempDir()
	layout, _ := encodeToStore(t, dir, enc, "f", data, store.Options{})
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	out := por.NewMemTarget(layout.OrigBytes)
	if err := enc.ExtractStream("f", layout, st, out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.B, data) {
		t.Fatal("giant-block store does not round-trip")
	}
}

// placerHidden exposes a Writer as a plain StreamTarget: the encode sees
// neither PlaceBlocks nor FlushPlacements, as on platforms where the
// Writer has no placer.
type placerHidden struct{ w *store.Writer }

func (p placerHidden) ReadAt(b []byte, off int64) (int, error)  { return p.w.ReadAt(b, off) }
func (p placerHidden) WriteAt(b []byte, off int64) (int, error) { return p.w.WriteAt(b, off) }

// TestStoreEncodeWithoutPlacer runs the write path a build without the
// placer takes — one WriteAt per block, a tag pass over ReadAt and
// WriteAt, every shard checksummed at Commit — and requires the shard
// bytes and committed CRCs the placer commits.
func TestStoreEncodeWithoutPlacer(t *testing.T) {
	data := testData(t, 40000)
	for _, params := range []blockfile.Params{fastParams, blockfile.DefaultParams()} {
		enc := por.NewEncoder([]byte("plain-master")).WithParams(params).WithConcurrency(4)
		opts := store.Options{ShardTargetBytes: 4096}
		wantDir, dir := t.TempDir(), t.TempDir()
		layout, want := encodeToStore(t, wantDir, enc, "f", data, opts)
		w, err := store.Create(dir, "f", layout, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		if _, err := enc.EncodeStream("f", bytes.NewReader(data), int64(len(data)), placerHidden{w}); err != nil {
			t.Fatal(err)
		}
		got, err := w.Commit()
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Shards) != len(want.Shards) || len(got.Shards) < 3 {
			t.Fatalf("%d shards, want %d (and several)", len(got.Shards), len(want.Shards))
		}
		for s := range want.Shards {
			if got.Shards[s] != want.Shards[s] {
				t.Fatalf("block size %d, shard %d: %+v without the placer, %+v with it", params.BlockSize, s, got.Shards[s], want.Shards[s])
			}
		}
		var imgs [2][]byte
		for i, d := range []string{wantDir, dir} {
			st, err := store.Open(d)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Verify(); err != nil {
				t.Fatal(err)
			}
			imgs[i] = make([]byte, layout.EncodedBytes)
			if _, err := st.ReadAt(imgs[i], 0); err != nil {
				t.Fatal(err)
			}
			st.Close()
		}
		if !bytes.Equal(imgs[1], imgs[0]) {
			t.Fatalf("block size %d: shard bytes differ without the placer", params.BlockSize)
		}
	}
}
