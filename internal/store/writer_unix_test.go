//go:build unix

package store_test

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/debug"
	"testing"

	"repro/internal/blockfile"
	"repro/internal/por"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// The placer's tests: PlaceBlocks and FlushPlacements exist on unix only.

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

// TestStoreFailedFlushCannotCommit: a bad placement set must fail, stay
// failed, and keep Commit from publishing a checksum-"valid" manifest
// over unfinished shards. A slot placed twice — inside one batch or
// across two — is refused by PlaceBlocks itself and latches the writer:
// placing the slot it left missing, flushing and committing all return
// the same ErrCorrupt. A slot outside the layout is refused by
// PlaceBlocks before any block of its batch is stored, and latches
// nothing.
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
	opts := store.Options{ShardTargetBytes: 4096}
	t.Run("duplicate", func(t *testing.T) {
		for _, split := range []int{n, n / 2} {
			dir := t.TempDir()
			w, err := store.Create(dir, "f", layout, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			// Slot 0 again where slot split-1 belongs: the last block of
			// the first batch, or the first of the second.
			slots := every()
			dup := split - 1
			if split < n {
				dup = split
			}
			missing := slots[dup]
			slots[dup] = 0
			bs := layout.BlockSize
			if split < n {
				if err := w.PlaceBlocks(blocks[:split*bs], bs, slots[:split]); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.PlaceBlocks(blocks[(split%n)*bs:], bs, slots[split%n:]); !errors.Is(err, store.ErrCorrupt) {
				t.Fatalf("split %d: placing slot 0 twice: err = %v, want ErrCorrupt", split, err)
			}
			if err := w.PlaceBlocks(blocks[:bs], bs, []uint64{missing}); !errors.Is(err, store.ErrCorrupt) {
				t.Fatalf("split %d: placing the missing slot: err = %v, want the latched ErrCorrupt", split, err)
			}
			for i := 0; i < 2; i++ {
				if err := w.FlushPlacements(nil); !errors.Is(err, store.ErrCorrupt) {
					t.Fatalf("split %d: flush call %d: err = %v, want the latched ErrCorrupt", split, i+1, err)
				}
			}
			if _, err := w.Commit(); !errors.Is(err, store.ErrCorrupt) {
				t.Fatalf("split %d: commit after a refused duplicate: err = %v, want ErrCorrupt", split, err)
			}
			if _, err := store.Open(dir); !errors.Is(err, store.ErrIncomplete) {
				t.Fatalf("split %d: Open: err = %v, want ErrIncomplete", split, err)
			}
		}
	})

	// A slot at TotalBlocks fails its whole batch: nothing of it is
	// stored, so placing the good slots afterwards completes the set.
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

// TestStorePlaceConcurrent: PlaceBlocks from 8 goroutines at once, over
// some thirty shards, materialises the same bytes and checksums as one
// goroutine placing every block.
func TestStorePlaceConcurrent(t *testing.T) {
	layout, err := blockfile.NewLayout(fastParams, 20000)
	if err != nil {
		t.Fatal(err)
	}
	opts := store.Options{ShardTargetBytes: 1000}
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
	w, err := store.Create(dir, "f", layout, store.Options{ShardTargetBytes: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	fillStore(t, w, layout)

	man := w.Manifest()
	segSize, payload := int64(layout.SegmentSize()), layout.SegmentPayloadBytes()
	calls := 0
	finish := func(img []byte, off int64, _ func(func() error) error) error {
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
	finish := func([]byte, int64, func(func() error) error) error {
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

// TestStoreCommitChecksums: the shard CRCs are taken over the mappings at
// the flush, so Commit reads nothing back — and a shard patched
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

// TestStoreWriteTelemetry: one encode moves the placer's counter by
// exactly the layout's block count.
func TestStoreWriteTelemetry(t *testing.T) {
	data := testData(t, 40000)
	enc := por.NewEncoder([]byte("count-master")).WithParams(fastParams).WithConcurrency(4)
	c0 := counters()
	layout, _ := encodeToStore(t, t.TempDir(), enc, "f", data, store.Options{ShardTargetBytes: 4096})
	c1 := counters()
	blocks := float64(layout.TotalBlocks)
	if d := c1["geoproof_store_placed_blocks_total"] - c0["geoproof_store_placed_blocks_total"]; d != blocks {
		t.Errorf("placed_blocks_total moved by %v, want %v", d, blocks)
	}
}

// TestPlaceSurvivesTruncatedShard plays the hostile filesystem on the
// write path, the mirror of TestGatherSurvivesTruncatedShard: a shard cut
// short under a live Writer — before a batch stores past the cut, before
// the flush, inside the finisher, or inside an encode's finisher before
// its two tag workers stamp the shard — comes back as ErrCorrupt from
// PlaceBlocks, FlushPlacements or EncodeStream, keeps Commit from
// publishing and leaves a directory Open reports incomplete, while the
// process lives on and the goroutine's fault setting is put back.
func TestPlaceSurvivesTruncatedShard(t *testing.T) {
	const size = 200000
	layout, err := blockfile.NewLayout(fastParams, size)
	if err != nil {
		t.Fatal(err)
	}
	page := int64(os.Getpagesize())
	for _, cut := range []string{"before-place", "before-flush", "inside-finish", "encode-workers"} {
		t.Run(cut, func(t *testing.T) {
			dir := t.TempDir()
			w, err := store.Create(dir, "f", layout, store.Options{ShardTargetBytes: 64 << 10})
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			man := w.Manifest()
			if man.ShardBytes < 3*page {
				t.Skipf("shards of %d bytes are too small for a %d-byte page", man.ShardBytes, page)
			}
			truncate := func() {
				if err := os.Truncate(filepath.Join(dir, "shard-00001.bin"), page); err != nil {
					t.Fatal(err)
				}
			}
			prev := debug.SetPanicOnFault(false)
			defer debug.SetPanicOnFault(prev)

			bs := layout.BlockSize
			per := uint64(man.ShardBytes / int64(layout.SegmentSize()) * int64(layout.SegmentBlocks))
			switch cut {
			case "before-place":
				// Shard 1's first block is inside the page the cut keeps,
				// its last past it.
				if err := w.PlaceBlocks(make([]byte, 2*bs), bs, []uint64{0, per}); err != nil {
					t.Fatal(err)
				}
				truncate()
				err = w.PlaceBlocks(make([]byte, 3*bs), bs, []uint64{1, per + 1, 2*per - 1})
			case "before-flush":
				fillStore(t, w, layout)
				truncate()
				err = w.FlushPlacements(nil)
			case "inside-finish":
				fillStore(t, w, layout)
				err = w.FlushPlacements(func(img []byte, off int64, _ func(func() error) error) error {
					if off == man.ShardBytes {
						truncate()
						img[len(img)-1] = 1
					}
					return nil
				})
			case "encode-workers":
				// The cut lands after the flush's size check on shard 1 and
				// before the encoder's workers stamp its tags: each of the
				// two faults on its own goroutine.
				enc := por.NewEncoder([]byte("cut-master")).WithParams(fastParams).WithConcurrency(2)
				_, err = enc.EncodeStream("f", bytes.NewReader(testData(t, size)), size, cutInFinish{w, func(off int64) {
					if off == man.ShardBytes {
						truncate()
					}
				}})
			}
			t.Logf("cut %s: %v", cut, err)
			if !errors.Is(err, store.ErrCorrupt) {
				t.Fatalf("cut %s: err = %v, want ErrCorrupt", cut, err)
			}
			if debug.SetPanicOnFault(false) {
				t.Error("the writer left SetPanicOnFault on")
			}
			if err := w.FlushPlacements(nil); !errors.Is(err, store.ErrCorrupt) {
				t.Fatalf("flush after the cut: err = %v, want the latched ErrCorrupt", err)
			}
			if _, err := w.Commit(); !errors.Is(err, store.ErrCorrupt) {
				t.Fatalf("commit after the cut: err = %v, want ErrCorrupt", err)
			}
			if _, err := store.Open(dir); !errors.Is(err, store.ErrIncomplete) {
				t.Fatalf("Open after the cut: err = %v, want ErrIncomplete", err)
			}
		})
	}
}

// cutInFinish is a Writer whose flush calls cut with each image's offset
// before the encoder's finisher sees the image.
type cutInFinish struct {
	*store.Writer
	cut func(off int64)
}

func (c cutInFinish) FlushPlacements(finish func([]byte, int64, func(func() error) error) error) error {
	return c.Writer.FlushPlacements(func(img []byte, off int64, guard func(func() error) error) error {
		c.cut(off)
		return finish(img, off, guard)
	})
}

// BenchmarkStorePlace is the placer's own budget line: Create — which
// fills the shards' page cache and maps them — then PlaceBlocks of an
// 8 MiB file's permuted blocks in chunk-group batches, as the encode
// pipeline hands them over, then FlushPlacements and Close — the stores,
// the checksums and the unmaps, without the encode's RS, CTR, PRP and
// tags. Reported per block placed.
func BenchmarkStorePlace(b *testing.B) {
	layout, err := blockfile.NewLayout(blockfile.DefaultParams(), 8<<20)
	if err != nil {
		b.Fatal(err)
	}
	bs, n := layout.BlockSize, int(layout.TotalBlocks)
	rng := rand.New(rand.NewSource(1))
	slots := make([]uint64, n)
	for j, i := range rng.Perm(n) {
		slots[j] = uint64(i)
	}
	blocks := make([]byte, n*bs)
	rng.Read(blocks)
	group := 64 * layout.ChunkTotal // one 256 KiB chunk group
	dir := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := store.Create(dir, "f", layout, store.Options{})
		if err != nil {
			b.Fatal(err)
		}
		for lo := 0; lo < n; lo += group {
			hi := min(lo+group, n)
			if err := w.PlaceBlocks(blocks[lo*bs:hi*bs], bs, slots[lo:hi]); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.FlushPlacements(nil); err != nil {
			b.Fatal(err)
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/block")
}
