package store_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/blockfile"
	"repro/internal/por"
	"repro/internal/store"
	"repro/internal/telemetry"
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
// store-backed encode materialises — blocks placed through the staging
// logs, tags stamped in each shard image before its one write — are
// identical to the in-memory encode's, at sequential, NumCPU and parallel
// concurrency, in the test geometry and the paper's, and under a staging
// window small enough to force many spills over some fifty shards.
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
		{"seq-tiny-window", 1, fastParams, store.Options{WindowBytes: 2048, ShardTargetBytes: 4096}},
		{"par-tiny-window", 8, fastParams, store.Options{WindowBytes: 2048, ShardTargetBytes: 4096}},
		{"numcpu-50-shards", 0, fastParams, store.Options{WindowBytes: 2048, ShardTargetBytes: 1700}},
		{"seq-paper-geometry", 1, blockfile.DefaultParams(), store.Options{WindowBytes: 2048, ShardTargetBytes: 1000}},
		{"numcpu-paper-geometry", 0, blockfile.DefaultParams(), store.Options{}},
		{"par-paper-geometry", 8, blockfile.DefaultParams(), store.Options{WindowBytes: 2048, ShardTargetBytes: 1000}},
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

// TestStoreCrashMidEncodeDetectedAndRecovered is the crash-recovery
// contract: an encode that dies partway (here: the writer is abandoned
// without Commit, the on-disk image a kill -9 would leave) must be
// detected at Open, and re-running setup into the same directory must
// produce a fully working store.
func TestStoreCrashMidEncodeDetectedAndRecovered(t *testing.T) {
	data := testData(t, 20000)
	enc := por.NewEncoder([]byte("crash-master")).WithParams(fastParams).WithConcurrency(2)
	layout, err := blockfile.NewLayout(fastParams, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	// Simulate the crash: place a prefix of the file, never flush or
	// commit, drop the writer.
	w, err := store.Create(dir, "f", layout, store.Options{ShardTargetBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	blocks := make([]byte, 8*layout.BlockSize)
	slots := make([]uint64, 8)
	for i := range slots {
		slots[i] = uint64(i * layout.SegmentBlocks) // arbitrary valid block slots
	}
	if err := w.PlaceBlocks(blocks, layout.BlockSize, slots); err != nil {
		t.Fatal(err)
	}
	w.Close()

	if _, err := store.Open(dir); !errors.Is(err, store.ErrIncomplete) {
		t.Fatalf("Open of crashed encode: err = %v, want ErrIncomplete", err)
	}

	// Recovery: re-run the whole setup into the same directory.
	_, man := encodeToStore(t, dir, enc, "f", data, store.Options{ShardTargetBytes: 4096})
	if man.Epoch <= 1 {
		t.Fatalf("re-encoded store at epoch %d, want a bumped epoch", man.Epoch)
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatalf("reopen after recovery: %v", err)
	}
	defer st.Close()
	if err := st.Verify(); err != nil {
		t.Fatal(err)
	}
	out := por.NewMemTarget(layout.OrigBytes)
	if err := enc.ExtractStream("f", layout, st, out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.B, data) {
		t.Fatal("extract after crash recovery does not round-trip")
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
// through ReadSegment, ReadSegments and ReadAt alike — while segments
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
	if _, err := st.ReadSegments([]int64{0, first}, 2); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("ReadSegments across the cut: err = %v, want ErrCorrupt", err)
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

// TestStoreConcurrentReads hammers ReadSegments from many goroutines so
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
	segs, err := st.ReadSegments(indices, 8)
	if err != nil {
		t.Fatal(err)
	}
	for j, i := range indices {
		if !bytes.Equal(segs[j], want.Data[i*segSize:(i+1)*segSize]) {
			t.Fatalf("concurrent segment read %d (index %d) differs", j, i)
		}
	}
}

// TestStoreCreateSweepsStaleShards: re-creating a store with a smaller
// geometry in the same directory must not leave the old, larger
// geometry's shard files behind as verified-looking dead data.
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

// TestStoreFailedFlushCannotCommit: a flush that detects a bad placement
// set must fail, stay failed, and keep Commit from publishing a
// checksum-"valid" manifest over unmaterialised shards. Two bad sets:
// a duplicate slot (plus the slot it left missing), and a staged record
// whose slot lies past the short last shard's slot count — a log damaged
// between spill and replay, since PlaceBlocks cannot stage one. A slot
// outside the layout is refused by PlaceBlocks before any block of its
// batch is staged.
func TestStoreFailedFlushCannotCommit(t *testing.T) {
	data := testData(t, 9000)
	layout, err := blockfile.NewLayout(fastParams, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	n := int(layout.TotalBlocks)
	blocks := make([]byte, n*layout.BlockSize)
	every := func() []uint64 {
		slots := make([]uint64, n)
		for i := range slots {
			slots[i] = uint64(i)
		}
		return slots
	}
	opts := store.Options{ShardTargetBytes: 4096, WindowBytes: 2048}
	for _, tc := range []struct {
		name  string
		slots []uint64
		// damage, when set, rewrites the staging logs before the flush.
		damage func(t *testing.T, dir string, man store.Manifest)
	}{
		{"duplicate", func() []uint64 { s := every(); s[1] = s[0]; return s }(), nil},
		{"past-last-shard", every(), func(t *testing.T, dir string, man store.Manifest) {
			last := len(man.Shards) - 1
			lastSlots := man.Shards[last].Bytes / int64(layout.SegmentSize()) * int64(layout.SegmentBlocks)
			fullSlots := man.ShardBytes / int64(layout.SegmentSize()) * int64(layout.SegmentBlocks)
			if lastSlots >= fullSlots {
				t.Fatalf("setup: last shard holds %d slots, a full one %d; want it short", lastSlots, fullSlots)
			}
			f, err := os.OpenFile(filepath.Join(dir, fmt.Sprintf("shard-%05d.log", last)), os.O_RDWR, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			var hdr [4]byte
			binary.LittleEndian.PutUint32(hdr[:], uint32(lastSlots))
			if _, err := f.WriteAt(hdr[:], 0); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			w, err := store.Create(dir, "f", layout, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			// The count check passes in both cases; the slot checks must
			// catch them.
			if err := w.PlaceBlocks(blocks, layout.BlockSize, tc.slots); err != nil {
				t.Fatal(err)
			}
			if tc.damage != nil {
				tc.damage(t, dir, w.Manifest())
			}
			if err := w.FlushPlacements(nil); !errors.Is(err, store.ErrCorrupt) {
				t.Fatalf("flush of a bad placement set: err = %v, want ErrCorrupt", err)
			}
			if err := w.FlushPlacements(nil); !errors.Is(err, store.ErrCorrupt) {
				t.Fatalf("second flush call: err = %v, want the latched ErrCorrupt", err)
			}
			if _, err := w.Commit(); !errors.Is(err, store.ErrCorrupt) {
				t.Fatalf("commit after failed flush: err = %v, want ErrCorrupt", err)
			}
			if _, err := store.Open(dir); err == nil {
				t.Fatal("store with a failed flush opened as committed")
			}
		})
	}

	// A slot at TotalBlocks fails its whole batch: nothing of it is
	// staged, so placing the good slots afterwards completes the set.
	w, err := store.Create(t.TempDir(), "f", layout, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	bad := every()
	bad[n/2] = uint64(n)
	if err := w.PlaceBlocks(blocks, layout.BlockSize, bad); err == nil {
		t.Fatal("PlaceBlocks accepted a slot at TotalBlocks")
	}
	if err := w.PlaceBlocks(blocks, layout.BlockSize, every()); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Commit(); err != nil {
		t.Fatalf("commit after a refused batch and a complete one: %v", err)
	}
}

// TestStoreGiantBlockSize: a block record larger than the replay chunk
// buffer must degrade to one-record reads, not hang the flush (the
// zero-length-buffer regression).
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

// fillStore places every block of the layout through PlaceBlocks, in a
// shuffled order and several calls; block i carries byte(i) + 1 throughout,
// so a materialised image says which block sits where and a zero byte can
// only be a tag byte.
func fillStore(t *testing.T, w *store.Writer, layout blockfile.Layout) {
	t.Helper()
	bs := layout.BlockSize
	order := rand.New(rand.NewSource(3)).Perm(int(layout.TotalBlocks))
	for len(order) > 0 {
		n := min(len(order), 97)
		blocks := make([]byte, n*bs)
		slots := make([]uint64, n)
		for j, i := range order[:n] {
			slots[j] = uint64(i)
			for k := 0; k < bs; k++ {
				blocks[j*bs+k] = byte(i) + 1
			}
		}
		if err := w.PlaceBlocks(blocks, bs, slots); err != nil {
			t.Fatal(err)
		}
		order = order[n:]
	}
}

// TestStorePlaceConcurrent: PlaceBlocks from 8 goroutines at once, through
// a window small enough to spill throughout, materialises the same bytes
// as one goroutine placing every block.
func TestStorePlaceConcurrent(t *testing.T) {
	layout, err := blockfile.NewLayout(fastParams, 20000)
	if err != nil {
		t.Fatal(err)
	}
	opts := store.Options{ShardTargetBytes: 1000, WindowBytes: 2048}
	commit := func(place func(w *store.Writer)) ([]byte, store.Manifest) {
		dir := t.TempDir()
		w, err := store.Create(dir, "f", layout, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		place(w)
		man, err := w.Commit()
		if err != nil {
			t.Fatal(err)
		}
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		img := make([]byte, layout.EncodedBytes)
		if _, err := st.ReadAt(img, 0); err != nil {
			t.Fatal(err)
		}
		return img, man
	}
	want, wantMan := commit(func(w *store.Writer) { fillStore(t, w, layout) })
	got, gotMan := commit(func(w *store.Writer) {
		bs := layout.BlockSize
		order := rand.New(rand.NewSource(5)).Perm(int(layout.TotalBlocks))
		errs := make(chan error, 8)
		for g := 0; g < 8; g++ {
			go func(g int) {
				var err error
				for lo := g * 64; lo < len(order) && err == nil; lo += 8 * 64 {
					part := order[lo:min(lo+64, len(order))]
					blocks := make([]byte, len(part)*bs)
					slots := make([]uint64, len(part))
					for j, i := range part {
						slots[j] = uint64(i)
						for k := 0; k < bs; k++ {
							blocks[j*bs+k] = byte(i) + 1
						}
					}
					err = w.PlaceBlocks(blocks, bs, slots)
				}
				errs <- err
			}(g)
		}
		for g := 0; g < 8; g++ {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
	})
	if !bytes.Equal(got, want) {
		t.Fatal("concurrent placement materialised different bytes")
	}
	for s := range wantMan.Shards {
		if gotMan.Shards[s] != wantMan.Shards[s] {
			t.Fatalf("shard %d: %+v, want %+v", s, gotMan.Shards[s], wantMan.Shards[s])
		}
	}
}

// TestStoreFinisherSeesEveryShardOnce is the contract of the flush seam
// the encoder's tag stamping rides on: finish runs exactly once per
// shard, in shard order, on the complete segment-aligned image at its
// byte offset in the encoded file — every placed block at its slot, every
// tag byte still zero — and what it writes into the image is what the
// committed shard holds.
func TestStoreFinisherSeesEveryShardOnce(t *testing.T) {
	layout, err := blockfile.NewLayout(fastParams, 9000)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	w, err := store.Create(dir, "f", layout, store.Options{ShardTargetBytes: 1000, WindowBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	fillStore(t, w, layout)

	man := w.Manifest()
	segSize, payload := int64(layout.SegmentSize()), layout.SegmentPayloadBytes()
	calls := 0
	finish := func(img []byte, off int64) error {
		s := calls
		calls++
		if s >= len(man.Shards) {
			t.Fatalf("finish call %d for %d shards", calls, len(man.Shards))
		}
		if off != int64(s)*man.ShardBytes || int64(len(img)) != man.Shards[s].Bytes {
			t.Fatalf("call %d: image [%d, +%d), want shard %d at [%d, +%d)", calls, off, len(img), s, int64(s)*man.ShardBytes, man.Shards[s].Bytes)
		}
		if off%segSize != 0 || int64(len(img))%segSize != 0 {
			t.Fatalf("shard %d image [%d, +%d) is not segment-aligned (%d-byte segments)", s, off, len(img), segSize)
		}
		for i := int64(0); i < int64(len(img))/segSize; i++ {
			seg := img[i*segSize : (i+1)*segSize]
			for k, b := range seg {
				want := byte(0) // tag slot
				if k < payload {
					want = byte((off/segSize+i)*int64(layout.SegmentBlocks)+int64(k/layout.BlockSize)) + 1
				}
				if b != want {
					t.Fatalf("shard %d segment %d byte %d = %#x, want %#x", s, i, k, b, want)
				}
			}
			for k := payload; k < len(seg); k++ {
				seg[k] = 0xA0 | byte(s)&0xf
			}
		}
		return nil
	}
	if err := w.FlushPlacements(finish); err != nil {
		t.Fatal(err)
	}
	if calls != len(man.Shards) || calls < 10 {
		t.Fatalf("finish ran %d times over %d shards (want one each, ten shards or more)", calls, len(man.Shards))
	}
	if err := w.FlushPlacements(finish); err != nil || calls != len(man.Shards) {
		t.Fatalf("second flush: err = %v, finish calls %d → want nil and no further call", err, calls)
	}
	if _, err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Verify(); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int64{0, layout.Segments / 2, layout.Segments - 1} {
		seg, err := st.ReadSegment(i)
		if err != nil {
			t.Fatal(err)
		}
		s := i * segSize / man.ShardBytes
		if seg[0] != byte(i*int64(layout.SegmentBlocks))+1 || seg[payload] != 0xA0|byte(s)&0xf {
			t.Fatalf("committed segment %d = %x: not the finished image of shard %d", i, seg, s)
		}
	}
}

// TestStoreFinisherErrorCannotCommit: an error from finish is a flush
// error like any other — it fails the flush, stays latched (finish is not
// given a second try), keeps Commit from publishing, and leaves a
// directory Open reports as an incomplete encode.
func TestStoreFinisherErrorCannotCommit(t *testing.T) {
	layout, err := blockfile.NewLayout(fastParams, 9000)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	w, err := store.Create(dir, "f", layout, store.Options{ShardTargetBytes: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	fillStore(t, w, layout)

	errTag := errors.New("tagging failed")
	calls := 0
	finish := func([]byte, int64) error {
		calls++
		if calls == 3 {
			return errTag
		}
		return nil
	}
	if err := w.FlushPlacements(finish); !errors.Is(err, errTag) {
		t.Fatalf("flush with a failing finish: err = %v, want it to wrap %v", err, errTag)
	}
	if err := w.FlushPlacements(finish); !errors.Is(err, errTag) || calls != 3 {
		t.Fatalf("second flush: err = %v after %d finish calls, want the latched error and no further call", err, calls)
	}
	if _, err := w.Commit(); !errors.Is(err, errTag) {
		t.Fatalf("commit after a failed finish: err = %v, want %v", err, errTag)
	}
	if _, err := store.Open(dir); !errors.Is(err, store.ErrIncomplete) {
		t.Fatalf("Open after a failed finish: err = %v, want ErrIncomplete", err)
	}
}

// TestStoreCommitChecksums: the shard CRCs are taken from the images at
// materialisation, so Commit reads nothing back — and a shard patched
// through Writer.WriteAt after the flush is checksummed afresh. Either
// way the committed manifest must agree with a fresh Verify, and the
// patch must be what the store serves.
func TestStoreCommitChecksums(t *testing.T) {
	layout, err := blockfile.NewLayout(fastParams, 9000)
	if err != nil {
		t.Fatal(err)
	}
	for _, patch := range []bool{false, true} {
		dir := t.TempDir()
		w, err := store.Create(dir, "f", layout, store.Options{ShardTargetBytes: 1000})
		if err != nil {
			t.Fatal(err)
		}
		fillStore(t, w, layout)
		if err := w.FlushPlacements(nil); err != nil {
			t.Fatal(err)
		}
		off := w.Manifest().ShardBytes*2 - 2 // spans shards 1 and 2
		if patch {
			if _, err := w.WriteAt([]byte{0xEE, 0xEE, 0xEE, 0xEE}, off); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := w.Commit(); err != nil {
			t.Fatal(err)
		}
		w.Close()
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Verify(); err != nil {
			t.Fatalf("patch=%v: committed checksums disagree with the shards: %v", patch, err)
		}
		got := make([]byte, 4)
		if _, err := st.ReadAt(got, off); err != nil {
			t.Fatal(err)
		}
		if patched := bytes.Equal(got, []byte{0xEE, 0xEE, 0xEE, 0xEE}); patched != patch {
			t.Fatalf("patch=%v: store serves %x at %d", patch, got, off)
		}
		st.Close()
	}
}

// counters snapshots the process-wide metric values by family name.
func counters() map[string]float64 {
	m := map[string]float64{}
	for _, s := range telemetry.Default.Snapshot() {
		m[s.Name] = s.Value
	}
	return m
}

// TestStoreWriteTelemetry: one encode moves the placer's counters by
// exactly the layout's block count and, every block being spilled once
// as a 4-byte destination plus its bytes, by that many staging-log bytes.
func TestStoreWriteTelemetry(t *testing.T) {
	data := testData(t, 40000)
	enc := por.NewEncoder([]byte("count-master")).WithParams(fastParams).WithConcurrency(4)
	c0 := counters()
	layout, _ := encodeToStore(t, t.TempDir(), enc, "f", data, store.Options{WindowBytes: 2048, ShardTargetBytes: 4096})
	c1 := counters()
	blocks := float64(layout.TotalBlocks)
	if d := c1["geoproof_store_placed_blocks_total"] - c0["geoproof_store_placed_blocks_total"]; d != blocks {
		t.Errorf("placed_blocks_total moved by %v, want %v", d, blocks)
	}
	if d := c1["geoproof_store_spill_bytes_total"] - c0["geoproof_store_spill_bytes_total"]; d != blocks*float64(4+layout.BlockSize) {
		t.Errorf("spill_bytes_total moved by %v, want %v", d, blocks*float64(4+layout.BlockSize))
	}
}
