//go:build unix

package store_test

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync/atomic"
	"testing"

	"repro/internal/blockfile"
	"repro/internal/por"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// The tests of the writer's loan: Images exists on unix only.

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

	// Simulate the crash: store a prefix of the file through the loan,
	// never commit, drop the writer.
	w, err := store.Create(dir, "f", layout, store.Options{ShardTargetBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Images(func(views [][]byte, _ func(func() error) error) error {
		copy(views[0], data)
		return nil
	}); err != nil {
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

// TestStoreFailedFlushCannotCommit: a failed loan must stay failed and
// keep Commit from publishing a checksum-"valid" manifest over unfinished
// shards. Here the loan's fn places slot 0 a second time, which the
// bitmap it keeps refuses, and returns that error: Images returns it, a
// second loan returns it without running fn, Commit returns it, and Open
// reports an incomplete encode. The engine's own bitmap is pinned by
// por's TestPlaceSlotTwiceFails, and a refused encode by
// TestStreamRefusesAnotherLayout.
func TestStoreFailedFlushCannotCommit(t *testing.T) {
	layout, err := blockfile.NewLayout(fastParams, 9000)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("duplicate", func(t *testing.T) {
		dir := t.TempDir()
		w, err := store.Create(dir, "f", layout, store.Options{ShardTargetBytes: 4096})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		errTwice := errors.New("block slot 0 placed twice")
		calls := 0
		place := func(views [][]byte, _ func(func() error) error) error {
			calls++
			seen := make([]uint64, (layout.TotalBlocks+63)/64)
			slots := []uint64{0, 5, uint64(layout.TotalBlocks) - 1, 0}
			if j := layout.SlotGeom(int64(len(views[0]))).Place(views, make([]byte, len(slots)*layout.BlockSize), slots, seen); j != 3 {
				t.Fatalf("Place stopped at %d, want 3", j)
			}
			return errTwice
		}
		if err := w.Images(place); !errors.Is(err, errTwice) {
			t.Fatalf("loan: err = %v, want %v", err, errTwice)
		}
		if err := w.Images(place); !errors.Is(err, errTwice) || calls != 1 {
			t.Fatalf("second loan: err = %v after %d calls, want the latched error and no further call", err, calls)
		}
		for i := 0; i < 2; i++ {
			if _, err := w.Commit(); !errors.Is(err, errTwice) {
				t.Fatalf("commit %d after the failed loan: err = %v, want %v", i+1, err, errTwice)
			}
		}
		if _, err := store.Open(dir); !errors.Is(err, store.ErrIncomplete) {
			t.Fatalf("Open: err = %v, want ErrIncomplete", err)
		}
	})
}

// TestStoreFinisherErrorCannotCommit: an error from the per-shard work
// an encode does inside the loan after placing its blocks (stamping a
// shard's tags, through the guard) fails the loan like any other — it
// stays latched (the loan is not given a second try), keeps Commit from
// publishing, and leaves a directory Open reports as an incomplete encode.
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

	errTag := errors.New("tagging failed")
	calls, finished := 0, 0
	finish := func(views [][]byte, guard func(func() error) error) error {
		calls++
		if len(views) < 4 {
			t.Fatalf("%d shards, want at least 4 so the failure falls mid-encode", len(views))
		}
		placeAll(views, layout)
		for s := range views {
			if err := guard(func() error {
				if s == 2 {
					return errTag
				}
				finished++
				return nil
			}); err != nil {
				return err
			}
		}
		return nil
	}
	if err := w.Images(finish); !errors.Is(err, errTag) || finished != 2 {
		t.Fatalf("loan with a failing finish: err = %v after %d finished shards, want it to wrap %v after 2", err, finished, errTag)
	}
	if err := w.Images(finish); !errors.Is(err, errTag) || calls != 1 {
		t.Fatalf("second loan: err = %v after %d calls, want the latched error and no further call", err, calls)
	}
	if _, err := w.Commit(); !errors.Is(err, errTag) {
		t.Fatalf("commit after a failed finish: err = %v, want %v", err, errTag)
	}
	if _, err := store.Open(dir); !errors.Is(err, store.ErrIncomplete) {
		t.Fatalf("Open after a failed finish: err = %v, want ErrIncomplete", err)
	}
}

// placeAll stores every block of the layout into views through the slot
// map; block i carries byte(i) + 1 throughout, so a materialised image
// says which block sits where and a zero byte can only be a tag byte.
func placeAll(views [][]byte, layout blockfile.Layout) {
	bs, n := layout.BlockSize, int(layout.TotalBlocks)
	blocks, slots := make([]byte, n*bs), make([]uint64, n)
	for i := range slots {
		slots[i] = uint64(i)
		for k := 0; k < bs; k++ {
			blocks[i*bs+k] = byte(i) + 1
		}
	}
	layout.SlotGeom(int64(len(views[0]))).Place(views, blocks, slots, nil)
}

// TestStorePlaceConcurrent: an encode at Concurrency 8, its workers
// placing and tagging over some thirty shards at once, commits the same
// bytes and checksums as one at Concurrency 1.
func TestStorePlaceConcurrent(t *testing.T) {
	data := testData(t, 20000)
	master := por.NewEncoder([]byte("concurrent-master")).WithParams(fastParams)
	opts := store.Options{ShardTargetBytes: 1000}
	commit := func(conc int) ([]byte, store.Manifest) {
		dir := t.TempDir()
		layout, man := encodeToStore(t, dir, master.WithConcurrency(conc), "f", data, opts)
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
	want, wantMan := commit(1)
	got, gotMan := commit(8)
	if len(wantMan.Shards) < 20 {
		t.Fatalf("%d shards, want some thirty", len(wantMan.Shards))
	}
	if !bytes.Equal(got, want) {
		t.Fatal("concurrent placement materialised different bytes")
	}
	for s := range wantMan.Shards {
		if gotMan.Shards[s] != wantMan.Shards[s] {
			t.Fatalf("shard %d: %+v, want %+v", s, gotMan.Shards[s], wantMan.Shards[s])
		}
	}
}

// TestStoreImagesAreTheShards is the contract of the write-side loan:
// Images lends every shard once, in shard order, each view its shard's
// length and segment-aligned; blocks stored through the slot map and tag
// bytes stamped into the views are what the committed shards hold, at
// the offsets pread finds them; and the images are lent once, never
// after Commit.
func TestStoreImagesAreTheShards(t *testing.T) {
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
	man := w.Manifest()
	segSize, payload := int64(layout.SegmentSize()), layout.SegmentPayloadBytes()
	err = w.Images(func(views [][]byte, _ func(func() error) error) error {
		if len(views) != len(man.Shards) || len(views) < 10 {
			t.Fatalf("%d views for %d shards (want one each, ten shards or more)", len(views), len(man.Shards))
		}
		for s, v := range views {
			if int64(len(v)) != man.Shards[s].Bytes || int64(len(v))%segSize != 0 {
				t.Fatalf("view %d is %d bytes, want shard %d's %d, segment-aligned", s, len(v), s, man.Shards[s].Bytes)
			}
		}
		// Each segment's tag bytes say which view stamped them.
		placeAll(views, layout)
		for s, v := range views {
			for i := int64(0); i < int64(len(v))/segSize; i++ {
				for k := payload; k < int(segSize); k++ {
					v[i*segSize+int64(k)] = 0xA0 | byte(s)&0xf
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Images(func([][]byte, func(func() error) error) error { return nil }); err == nil {
		t.Fatal("a second loan was granted")
	}
	if _, err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := w.Images(func([][]byte, func(func() error) error) error { return nil }); err == nil {
		t.Fatal("a loan was granted after Commit")
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Verify(); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < layout.Segments; i++ {
		seg, err := st.ReadSegment(i)
		if err != nil {
			t.Fatal(err)
		}
		s := i * segSize / man.ShardBytes
		for k, b := range seg {
			want := 0xA0 | byte(s)&0xf // tag slot
			if k < payload {
				want = byte(i*int64(layout.SegmentBlocks)+int64(k/layout.BlockSize)) + 1
			}
			if b != want {
				t.Fatalf("committed segment %d byte %d = %#x, want %#x: not what the loan stored in shard %d", i, k, b, want, s)
			}
		}
	}
}

// TestStoreCommitChecksums: the shard CRCs are taken over the mappings at
// Commit, so Commit reads nothing back, and a shard patched through
// Writer.WriteAt after the loan is checksummed with the patch. Either way
// the committed manifest must agree with a fresh Verify, and the patch
// must be what the store serves.
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
		if err := w.Images(func(views [][]byte, _ func(func() error) error) error {
			placeAll(views, layout)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		off := w.Manifest().ShardBytes*2 - 2 // spans shards 1 and 2
		if patch {
			if _, err := w.WriteAt([]byte{0xEE, 0xEE, 0xEE, 0xEE}, off); err != nil {
				t.Fatal(err)
			}
		}
		c0 := counters()
		if _, err := w.Commit(); err != nil {
			t.Fatal(err)
		}
		if d := counters()["geoproof_store_preads_total"] - c0["geoproof_store_preads_total"]; d != 0 {
			t.Errorf("patch=%v: Commit issued %v preads, want none", patch, d)
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

// TestStoreWriteTelemetry: an encode into a store and its Commit read
// nothing back — blocks and tags go into the mappings, the checksums are
// taken over them — so the pread counters do not move; the same encode
// with the loan hidden reads every segment back for its tag pass.
func TestStoreWriteTelemetry(t *testing.T) {
	data := testData(t, 40000)
	enc := por.NewEncoder([]byte("count-master")).WithParams(fastParams).WithConcurrency(4)
	c0 := counters()
	layout, _ := encodeToStore(t, t.TempDir(), enc, "f", data, store.Options{ShardTargetBytes: 4096})
	c1 := counters()
	for _, name := range []string{"geoproof_store_preads_total", "geoproof_store_pread_bytes_total"} {
		if d := c1[name] - c0[name]; d != 0 {
			t.Errorf("%s moved by %v over a store encode, want 0", name, d)
		}
	}
	w, err := store.Create(t.TempDir(), "f", layout, store.Options{ShardTargetBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := enc.EncodeStream("f", bytes.NewReader(data), int64(len(data)), placerHidden{w}); err != nil {
		t.Fatal(err)
	}
	if d := counters()["geoproof_store_pread_bytes_total"] - c1["geoproof_store_pread_bytes_total"]; d != float64(layout.EncodedBytes) {
		t.Errorf("the hidden loan's tag pass read %v bytes back, want the encoded %d", d, layout.EncodedBytes)
	}
}

// imageFile is what both store types offer the POR engine on unix.
type imageFile interface {
	io.ReaderAt
	io.WriterAt
	Images(fn func(views [][]byte, guard func(func() error) error) error) error
	Layout() blockfile.Layout
}

// cutInLoan lends f's images with a guard that calls cut just before the
// at-th guarded piece of work runs (counting from 1), and counts them.
type cutInLoan struct {
	imageFile
	at    int64
	cut   func()
	calls atomic.Int64
}

func (c *cutInLoan) Images(fn func(views [][]byte, guard func(func() error) error) error) error {
	return c.imageFile.Images(func(views [][]byte, guard func(func() error) error) error {
		return fn(views, func(work func() error) error {
			if c.calls.Add(1) == c.at {
				c.cut()
			}
			return guard(work)
		})
	})
}

// TestPlaceSurvivesTruncatedShard plays the hostile filesystem on the
// write path, the mirror of TestGatherSurvivesTruncatedShard: a shard cut
// short under a live Writer comes back as ErrCorrupt from EncodeStream,
// Images or Commit, keeps Commit from publishing and leaves a directory
// Open reports incomplete, while the process lives on and the
// goroutine's fault setting is put back. The cut lands before the encode
// (the loan's size check refuses it), after the encode and before Commit
// (Commit's), inside a loan whose fn stores past it on the lending
// goroutine, at the encode's first placement on a pipeline worker, and
// after placement, before the encoder's two tag workers stamp shard 1 —
// each of the two faults on its own goroutine.
func TestPlaceSurvivesTruncatedShard(t *testing.T) {
	const size = 200000
	layout, err := blockfile.NewLayout(fastParams, size)
	if err != nil {
		t.Fatal(err)
	}
	data := testData(t, size)
	enc := por.NewEncoder([]byte("cut-master")).WithParams(fastParams).WithConcurrency(2)
	opts := store.Options{ShardTargetBytes: 64 << 10}
	page := int64(os.Getpagesize())

	// A clean encode counts the guarded pieces of work: the placements,
	// then two tag workers per shard.
	count := &cutInLoan{at: -1}
	w0, err := store.Create(t.TempDir(), "f", layout, opts)
	if err != nil {
		t.Fatal(err)
	}
	count.imageFile = w0
	if _, err := enc.EncodeStream("f", bytes.NewReader(data), size, count); err != nil {
		t.Fatal(err)
	}
	firstTag := count.calls.Load() - 2*int64(len(w0.Manifest().Shards)) + 1
	w0.Close()

	for _, cut := range []string{"before-place", "before-flush", "inside-finish", "mid-placement", "encode-workers"} {
		t.Run(cut, func(t *testing.T) {
			dir := t.TempDir()
			w, err := store.Create(dir, "f", layout, opts)
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

			encode := func(tgt por.StreamTarget) error {
				_, err := enc.EncodeStream("f", bytes.NewReader(data), size, tgt)
				return err
			}
			switch cut {
			case "before-place":
				truncate()
				err = encode(w)
			case "before-flush":
				if err := encode(w); err != nil {
					t.Fatal(err)
				}
				truncate()
				_, err = w.Commit()
			case "inside-finish":
				err = w.Images(func(views [][]byte, _ func(func() error) error) error {
					truncate()
					views[1][len(views[1])-1] = 1
					return nil
				})
			case "mid-placement":
				err = encode(&cutInLoan{imageFile: w, at: 1, cut: truncate})
			case "encode-workers":
				err = encode(&cutInLoan{imageFile: w, at: firstTag, cut: truncate})
			}
			t.Logf("cut %s: %v", cut, err)
			if !errors.Is(err, store.ErrCorrupt) {
				t.Fatalf("cut %s: err = %v, want ErrCorrupt", cut, err)
			}
			if debug.SetPanicOnFault(false) {
				t.Error("the writer left SetPanicOnFault on")
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

// TestStreamRefusesAnotherLayout: a store made for one file size is
// refused by an encode or an extraction of another before any work, and
// a refused encode leaves nothing Commit will publish. Each row passed
// silently before the layouts were compared: the 100 001-byte encode into
// a 100 000-byte writer (the same 7 395 blocks) committed a store that
// extracted one byte short; the 100 000-byte encode into a 50 000-byte
// writer failed, yet Commit published an all-zero store that Open and
// Verify accepted; and an extraction under a 100 001-byte layout from the
// 100 000-byte store wrote 100 001 bytes.
func TestStreamRefusesAnotherLayout(t *testing.T) {
	enc := por.NewEncoder([]byte("layout-master"))
	layoutOf := func(n int64) blockfile.Layout {
		l, err := blockfile.NewLayout(enc.Params(), n)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	data := testData(t, 100001)
	for _, c := range []struct {
		name         string
		store, input int64
	}{
		{"encode-one-byte-more", 100000, 100001},
		{"encode-twice-the-size", 50000, 100000},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			w, err := store.Create(dir, "f", layoutOf(c.store), store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			if _, err := enc.EncodeStream("f", bytes.NewReader(data), c.input, w); err == nil {
				t.Fatalf("a %d-byte encode into a %d-byte store was accepted", c.input, c.store)
			} else {
				t.Log(err)
			}
			if _, err := w.Commit(); err == nil {
				t.Fatal("Commit published the refused encode")
			}
			if _, err := store.Open(dir); !errors.Is(err, store.ErrIncomplete) {
				t.Fatalf("Open: err = %v, want ErrIncomplete", err)
			}
		})
	}
	t.Run("extract-one-byte-more", func(t *testing.T) {
		dir := t.TempDir()
		encodeToStore(t, dir, enc, "f", data[:100000], store.Options{})
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		out := por.NewMemTarget(100001)
		if err := enc.ExtractStream("f", layoutOf(100001), st, out); err == nil {
			t.Fatal("an extraction under a 100 001-byte layout from a 100 000-byte store was accepted")
		} else {
			t.Log(err)
		}
		if !bytes.Equal(out.B, make([]byte, len(out.B))) {
			t.Fatal("the refused extraction wrote output")
		}
	})
}

// BenchmarkStorePlace is the store's own write budget line: Create —
// which fills the shards' page cache and maps them — then, in one loan,
// an 8 MiB file's permuted blocks stored through the slot map in
// chunk-group batches as the encode pipeline places them, then Commit
// (the checksums, the unmaps and the manifest) and Close — without the
// encode's RS, CTR, PRP and tags. Reported per block placed.
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
		err = w.Images(func(views [][]byte, _ func(func() error) error) error {
			geom, seen := layout.SlotGeom(int64(len(views[0]))), make([]uint64, (n+63)/64)
			for lo := 0; lo < n; lo += group {
				hi := min(lo+group, n)
				geom.Place(views, blocks[lo*bs:hi*bs], slots[lo:hi], seen)
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := w.Commit(); err != nil {
			b.Fatal(err)
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/block")
}
