//go:build unix

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
	"runtime/debug"
	"sync"
	"testing"

	"repro/internal/blockfile"
	"repro/internal/por"
	"repro/internal/store"
)

// openGatherStore encodes size seeded bytes with params into a store of
// shardTarget-byte shards and opens it.
func openGatherStore(t testing.TB, params blockfile.Params, size int, shardTarget int64) (*store.Store, *por.Encoder, blockfile.Layout, []byte, string) {
	t.Helper()
	data := testData(t, size)
	enc := por.NewEncoder([]byte("gather-master")).WithParams(params)
	dir := t.TempDir()
	layout, _ := encodeToStore(t, dir, enc, "f", data, store.Options{ShardTargetBytes: shardTarget})
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st, enc, layout, data, dir
}

// readSlots is the reference gather: one ReadAt per block, at
// Layout.StoredBlockOffset.
func readSlots(t testing.TB, st *store.Store, layout blockfile.Layout, slots []uint64) []byte {
	t.Helper()
	bs := layout.BlockSize
	buf := make([]byte, len(slots)*bs)
	for j, b := range slots {
		off := layout.StoredBlockOffset(int64(b))
		if _, err := st.ReadAt(buf[j*bs:(j+1)*bs], off); err != nil && err != io.EOF {
			t.Fatalf("ReadAt(%d): %v", off, err)
		}
	}
	return buf
}

// randomSlots returns n block slots drawn uniformly from the layout.
func randomSlots(layout blockfile.Layout, seed int64, n int) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	slots := make([]uint64, n)
	for j := range slots {
		slots[j] = uint64(rng.Int63n(layout.TotalBlocks))
	}
	return slots
}

// shardEdges returns the first and the last block slot of every shard,
// the short last shard included.
func shardEdges(layout blockfile.Layout, man store.Manifest) []uint64 {
	per := uint64(man.ShardBytes / int64(layout.SegmentSize()) * int64(layout.SegmentBlocks))
	total := uint64(layout.TotalBlocks)
	var edges []uint64
	for lo := uint64(0); lo < total; lo += per {
		edges = append(edges, lo, min(lo+per, total)-1)
	}
	return edges
}

// gatherParams are the two gather paths: the paper's 16-byte blocks (two
// passes per strip of store.GatherStrip slots) and fastParams' 4-byte ones
// (copy).
var gatherParams = []struct {
	name   string
	params blockfile.Params
}{
	{"paper-16-byte-blocks", blockfile.DefaultParams()},
	{"fast-4-byte-blocks", fastParams},
}

// groupSlots is one chunk group of the paper's geometry: 64 chunks of 255
// blocks, the batch an extraction gathers at once.
const groupSlots = 64 * 255

// gather fills buf with the blocks at slots as an extraction gathers
// them: out of the store's lent shard mappings, through the slot map.
func gather(st *store.Store, buf []byte, slots []uint64) error {
	layout := st.Layout()
	return st.Images(func(views [][]byte, _ func(func() error) error) error {
		layout.SlotGeom(int64(len(views[0]))).Gather(buf, views, slots)
		return nil
	})
}

// TestGatherBlocksMatchesReadAt is the read-side loan's defining
// property, on both gather paths: Images lends one view per shard, each
// its shard's length, and whatever slots a batch names — in any order,
// with repeats, the first and last of every shard, the short last
// shard's, in batches that end on either side of a strip seam or span a
// whole chunk group — gathering them from the views returns the bytes
// per-block ReadAt returns at StoredBlockOffset.
func TestGatherBlocksMatchesReadAt(t *testing.T) {
	for _, tc := range gatherParams {
		t.Run(tc.name, func(t *testing.T) {
			st, _, layout, _, _ := openGatherStore(t, tc.params, 61000, 4096)
			man := st.Manifest()
			if last := man.Shards[len(man.Shards)-1].Bytes; last >= man.ShardBytes || len(man.Shards) < 8 {
				t.Fatalf("%d shards, the last of %d bytes: want many, and a short last one", len(man.Shards), last)
			}
			err := st.Images(func(views [][]byte, _ func(func() error) error) error {
				if len(views) != len(man.Shards) {
					return fmt.Errorf("%d views for %d shards", len(views), len(man.Shards))
				}
				for s, v := range views {
					if int64(len(v)) != man.Shards[s].Bytes {
						return fmt.Errorf("view %d is %d bytes, shard %d is %d", s, len(v), s, man.Shards[s].Bytes)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			bs, total := layout.BlockSize, uint64(layout.TotalBlocks)
			check := func(what string, slots []uint64) {
				t.Helper()
				got := make([]byte, len(slots)*bs)
				if err := gather(st, got, slots); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if !bytes.Equal(got, readSlots(t, st, layout, slots)) {
					t.Fatalf("%s: gathered bytes differ from per-block ReadAt", what)
				}
			}
			edges := shardEdges(layout, man)
			check("shard edges", edges)
			const S = store.GatherStrip
			for _, n := range []int{1, S - 1, S, S + 1, 3*S + 7, groupSlots} {
				check(fmt.Sprintf("%d slots", n), randomSlots(layout, int64(n), n))
			}
			rng := rand.New(rand.NewSource(5))
			for round := 0; round < 200; round++ {
				slots := make([]uint64, rng.Intn(300))
				for j := range slots {
					switch {
					case rng.Intn(4) == 0:
						slots[j] = edges[rng.Intn(len(edges))]
					case j > 0 && rng.Intn(4) == 0:
						slots[j] = slots[rng.Intn(j)] // a repeat
					default:
						slots[j] = rng.Uint64() % total
					}
				}
				check(fmt.Sprintf("round %d", round), slots)
			}
		})
	}
}

// TestGatherSeesWriteAt is the coherence contract: once an extraction has
// made the mappings live, damage written through Store.WriteAt is what
// the next loan sees — the mapping is the page cache, not a copy — and
// the next extraction still recovers the plaintext from it.
func TestGatherSeesWriteAt(t *testing.T) {
	st, enc, layout, data, _ := openGatherStore(t, fastParams, 120000, 4096)
	extract := func() {
		t.Helper()
		out := por.NewMemTarget(layout.OrigBytes)
		if err := enc.ExtractStream("f", layout, st, out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.B, data) {
			t.Fatal("extraction does not reproduce the input")
		}
	}
	extract()

	bs := layout.BlockSize
	slots := randomSlots(layout, 9, 40)
	before := make([]byte, len(slots)*bs)
	if err := gather(st, before, slots); err != nil {
		t.Fatal(err)
	}
	for j, b := range slots {
		bad := bytes.Clone(before[j*bs : (j+1)*bs])
		for i := range bad {
			bad[i] ^= 0xff
		}
		if _, err := st.WriteAt(bad, layout.StoredBlockOffset(int64(b))); err != nil {
			t.Fatal(err)
		}
	}
	after := make([]byte, len(slots)*bs)
	if err := gather(st, after, slots); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(after, before) {
		t.Fatal("gather after WriteAt returned the bytes from before it")
	}
	if !bytes.Equal(after, readSlots(t, st, layout, slots)) {
		t.Fatal("gather after WriteAt differs from ReadAt")
	}
	if err := st.Verify(); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("Verify after the damage: %v, want ErrCorrupt", err)
	}
	extract() // suspect segments → erasure decoding → the same plaintext
}

// truncatedStore opens a store of params' blocks in 64 KiB shards and
// returns it with the path of shard 1 and that shard's first and last
// block slot; it skips when a page is too large for a cut inside the
// shard to leave a backed page and an unbacked one.
func truncatedStore(t *testing.T, params blockfile.Params) (*store.Store, blockfile.Layout, string, uint64, uint64) {
	t.Helper()
	st, _, layout, _, dir := openGatherStore(t, params, 200000, 64<<10)
	man := st.Manifest()
	if man.ShardBytes < 3*int64(os.Getpagesize()) {
		t.Skipf("shards of %d bytes are too small for a %d-byte page", man.ShardBytes, os.Getpagesize())
	}
	per := uint64(man.ShardBytes / int64(layout.SegmentSize()) * int64(layout.SegmentBlocks))
	return st, layout, filepath.Join(dir, "shard-00001.bin"), per, 2*per - 1
}

// TestGatherSurvivesTruncatedShard plays the hostile filesystem: a shard
// cut short underneath an open store must come back from an extraction
// as ErrCorrupt — cut before the first loan maps it, so the verify pass
// faults, or after an extraction mapped it and the next one's verify
// pass read it whole, so its first chunk group's gather faults — and from
// a gather whose faulting block is in a strip after the first, once
// earlier strips have been copied; the process lives on, the goroutine's
// fault setting is put back, and blocks that are still backed keep being
// served.
func TestGatherSurvivesTruncatedShard(t *testing.T) {
	for _, mapFirst := range []bool{true, false} {
		t.Run(fmt.Sprintf("mapped-before-cut=%v", mapFirst), func(t *testing.T) {
			st, layout, shard1, first, _ := truncatedStore(t, fastParams)
			enc := por.NewEncoder([]byte("gather-master")).WithParams(fastParams).WithConcurrency(1)
			cut := func() {
				if err := os.Truncate(shard1, int64(os.Getpagesize())); err != nil {
					t.Fatal(err)
				}
			}
			var src io.ReaderAt = st
			if mapFirst {
				if err := enc.ExtractStream("f", layout, st, por.NewMemTarget(layout.OrigBytes)); err != nil {
					t.Fatal(err)
				}
				// At Concurrency 1 the verify pass is the loan's first
				// guarded piece of work, the first group's gather its second.
				src = &cutInLoan{imageFile: st, at: 2, cut: cut}
			} else {
				cut()
			}

			prev := debug.SetPanicOnFault(false)
			defer debug.SetPanicOnFault(prev)
			err := enc.ExtractStream("f", layout, src, por.NewMemTarget(layout.OrigBytes))
			if !errors.Is(err, store.ErrCorrupt) {
				t.Fatalf("extraction from the truncated shard: %v, want ErrCorrupt", err)
			}
			if debug.SetPanicOnFault(false) {
				t.Error("the extraction left SetPanicOnFault on")
			}
			// Shard 0 and the surviving page of shard 1 are untouched.
			if err := gather(st, make([]byte, 2*layout.BlockSize), []uint64{0, first}); err != nil {
				t.Fatalf("gather of still-backed blocks: %v", err)
			}
		})
	}
	for _, tc := range gatherParams {
		t.Run("fault-in-third-strip/"+tc.name, func(t *testing.T) {
			st, layout, shard1, first, last := truncatedStore(t, tc.params)
			// Two strips and some of the third from still-backed blocks,
			// then the block past the cut.
			slots := make([]uint64, 2*store.GatherStrip+5)
			for j := range slots {
				slots[j] = first
				if j%2 == 0 {
					slots[j] = 0
				}
			}
			want := readSlots(t, st, layout, slots)
			slots = append(slots, last)
			if err := os.Truncate(shard1, int64(os.Getpagesize())); err != nil {
				t.Fatal(err)
			}

			prev := debug.SetPanicOnFault(false)
			defer debug.SetPanicOnFault(prev)
			buf := make([]byte, len(slots)*layout.BlockSize)
			if err := gather(st, buf, slots); !errors.Is(err, store.ErrCorrupt) {
				t.Fatalf("gather faulting in its third strip: %v, want ErrCorrupt", err)
			}
			if debug.SetPanicOnFault(false) {
				t.Error("the loan left SetPanicOnFault on")
			}
			// The strips before the fault were copied: the fault was
			// taken mid-batch, not before the first move.
			if !bytes.Equal(buf[:2*store.GatherStrip*layout.BlockSize], want[:2*store.GatherStrip*layout.BlockSize]) {
				t.Error("the strips before the fault were not copied")
			}
		})
	}
}

// TestVerifySurvivesTruncatedShard: Verify checksums the shard mappings,
// so a shard cut short underneath them — mapped before the cut or first
// mapped by this Verify — is ErrCorrupt, the process lives on and the
// goroutine's fault setting is put back; after Close, Verify gets
// os.ErrClosed.
func TestVerifySurvivesTruncatedShard(t *testing.T) {
	for _, mapFirst := range []bool{true, false} {
		t.Run(fmt.Sprintf("mapped-before-cut=%v", mapFirst), func(t *testing.T) {
			st, _, shard1, _, _ := truncatedStore(t, fastParams)
			if mapFirst {
				if err := st.Verify(); err != nil {
					t.Fatalf("Verify of the clean store: %v", err)
				}
			}
			if err := os.Truncate(shard1, int64(os.Getpagesize())); err != nil {
				t.Fatal(err)
			}

			prev := debug.SetPanicOnFault(false)
			defer debug.SetPanicOnFault(prev)
			if err := st.Verify(); !errors.Is(err, store.ErrCorrupt) {
				t.Fatalf("Verify of the truncated shard: %v, want ErrCorrupt", err)
			}
			if debug.SetPanicOnFault(false) {
				t.Error("Verify left SetPanicOnFault on")
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			if err := st.Verify(); !errors.Is(err, os.ErrClosed) {
				t.Fatalf("Verify after Close: %v, want os.ErrClosed", err)
			}
		})
	}
}

// TestGatherAllocatesNothing: a loan and a whole chunk group's gather
// allocate nothing on either path — the 16-byte path's resolved
// addresses stay in the gather's stack frame.
func TestGatherAllocatesNothing(t *testing.T) {
	for _, tc := range gatherParams {
		t.Run(tc.name, func(t *testing.T) {
			st, _, layout, _, _ := openGatherStore(t, tc.params, 61000, 4096)
			slots := randomSlots(layout, 7, groupSlots)
			buf := make([]byte, len(slots)*layout.BlockSize)
			if n := testing.AllocsPerRun(20, func() {
				if err := gather(st, buf, slots); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Fatalf("%v allocations per %d-slot gather, want 0", n, len(slots))
			}
		})
	}
}

// TestGatherAfterClose: Close takes every write lock before it unmaps, so
// it waits out the extractions in flight on the lent mappings, and a
// later extraction gets os.ErrClosed; extractions racing Close and
// WriteAt either recover the plaintext from live mappings or get that
// error — never a fault.
func TestGatherAfterClose(t *testing.T) {
	st, enc, layout, data, _ := openGatherStore(t, fastParams, 60000, 4096)
	enc = enc.WithConcurrency(2)
	slots := randomSlots(layout, 3, 64)

	var wg sync.WaitGroup
	started := make(chan struct{}, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			block := make([]byte, layout.BlockSize)
			for i := 0; ; i++ {
				if i == 1 {
					started <- struct{}{}
				}
				if g == 0 { // one goroutine plays the fault injector, rewriting a block's own bytes
					off := layout.StoredBlockOffset(int64(slots[i%len(slots)]))
					if _, err := st.ReadAt(block, off); err != nil {
						return // shard handles closed
					}
					if _, err := st.WriteAt(block, off); err != nil {
						return
					}
				}
				out := por.NewMemTarget(layout.OrigBytes)
				if err := enc.ExtractStream("f", layout, st, out); err != nil {
					if !errors.Is(err, os.ErrClosed) {
						t.Errorf("extraction racing Close: %v", err)
					}
					return
				}
				if !bytes.Equal(out.B, data) {
					t.Error("an extraction racing Close recovered other bytes")
					return
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-started
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if err := enc.ExtractStream("f", layout, st, por.NewMemTarget(layout.OrigBytes)); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("extraction after Close: %v, want os.ErrClosed", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestGatherTelemetry: Verify and an extraction through the lent
// mappings — its verify pass and its gather — issue no pread; hidden
// behind a bare io.ReaderAt the same extraction issues at least one per
// block.
func TestGatherTelemetry(t *testing.T) {
	st, enc, layout, _, _ := openGatherStore(t, fastParams, 120000, 4096)
	blocks := float64(layout.Chunks * int64(layout.ChunkTotal))

	c0 := counters()
	if err := st.Verify(); err != nil {
		t.Fatal(err)
	}
	if err := enc.ExtractStream("f", layout, st, por.NewMemTarget(layout.OrigBytes)); err != nil {
		t.Fatal(err)
	}
	c1 := counters()
	for _, name := range []string{"geoproof_store_preads_total", "geoproof_store_pread_bytes_total"} {
		if d := c1[name] - c0[name]; d != 0 {
			t.Errorf("%s moved by %v over Verify and a lent extraction, want 0", name, d)
		}
	}

	if err := enc.ExtractStream("f", layout, struct{ io.ReaderAt }{st}, por.NewMemTarget(layout.OrigBytes)); err != nil {
		t.Fatal(err)
	}
	if d := counters()["geoproof_store_preads_total"] - c1["geoproof_store_preads_total"]; d < blocks {
		t.Errorf("%v preads without the loan, want at least one per block (%v)", d, blocks)
	}
}

// FuzzGatherBlocks drives store-backed extraction — its verify pass and
// block gather reading the lent shard mappings — against the per-block
// ReadAt path, on a store of the paper's 16-byte blocks and one of
// fastParams' 4-byte blocks: the fuzzer flips bytes anywhere in the
// encoded file, payloads, tags and shard edges alike, up to 64 of them,
// and the two extractions must recover the same plaintext or fail with
// the same error. The store is restored after every input.
func FuzzGatherBlocks(f *testing.F) {
	type fixture struct {
		st     *store.Store
		enc    *por.Encoder
		layout blockfile.Layout
		edges  []int64 // the first and last byte of every shard
	}
	var fx [2]fixture
	for i, p := range []blockfile.Params{blockfile.DefaultParams(), fastParams} {
		st, enc, layout, _, _ := openGatherStore(f, p, 60000, 4096)
		man := st.Manifest()
		var edges []int64
		for s, sh := range man.Shards {
			edges = append(edges, int64(s)*man.ShardBytes, int64(s)*man.ShardBytes+sh.Bytes-1)
		}
		fx[i] = fixture{st, enc.WithConcurrency(1), layout, edges}
	}
	f.Add(false, []byte{0, 1, 2, 3, 4, 2, 9, 0, 0, 0})
	f.Add(true, []byte{3, 7, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff})
	f.Add(false, []byte{3, 0, 0, 0, 0})
	f.Add(true, []byte{0x7f, 1, 0, 0, 0, 2, 1, 0, 0, 0})
	// Sixty-four flips, every third on a shard edge.
	long := make([]byte, 5*64)
	for i := 0; i < len(long); i += 5 {
		long[i] = byte(i/5%3) & 1
		binary.LittleEndian.PutUint32(long[i+1:], uint32(i)*2654435761)
	}
	f.Add(false, long)
	f.Fuzz(func(t *testing.T, fast bool, data []byte) {
		x := fx[0]
		if fast {
			x = fx[1]
		}
		// Five bytes per flip: a selector (bit 0 picks a shard edge, the
		// rest the mask), then a 32-bit position.
		one := make([]byte, 1)
		var offs []int64
		var olds []byte
		defer func() {
			for i := len(offs) - 1; i >= 0; i-- {
				if _, err := x.st.WriteAt([]byte{olds[i]}, offs[i]); err != nil {
					t.Fatal(err)
				}
			}
		}()
		for i := 0; i+5 <= len(data) && len(offs) < 64; i += 5 {
			v := int64(binary.LittleEndian.Uint32(data[i+1:]))
			off := v % x.layout.EncodedBytes
			if data[i]&1 == 1 {
				off = x.edges[v%int64(len(x.edges))]
			}
			if _, err := x.st.ReadAt(one, off); err != nil {
				t.Fatal(err)
			}
			offs, olds = append(offs, off), append(olds, one[0])
			if _, err := x.st.WriteAt([]byte{one[0] ^ (data[i]>>1 | 1)}, off); err != nil {
				t.Fatal(err)
			}
		}
		lent, plain := por.NewMemTarget(x.layout.OrigBytes), por.NewMemTarget(x.layout.OrigBytes)
		lentErr := x.enc.ExtractStream("f", x.layout, x.st, lent)
		plainErr := x.enc.ExtractStream("f", x.layout, struct{ io.ReaderAt }{x.st}, plain)
		if fmt.Sprint(lentErr) != fmt.Sprint(plainErr) {
			t.Fatalf("lent mappings: %v; per-block ReadAt: %v", lentErr, plainErr)
		}
		if !bytes.Equal(lent.B, plain.B) {
			t.Fatal("the lent mappings and per-block ReadAt recovered different bytes")
		}
	})
}

// BenchmarkStoreGather is the gather's own budget line, the mirror of
// BenchmarkStorePlace: in one loan of a committed store's mappings, an
// 8 MiB file's permuted blocks gathered through the slot map in
// chunk-group batches as the extraction pipeline asks for them — without
// the extraction's verify pass, CTR, RS and output writes. Reported per
// block gathered.
func BenchmarkStoreGather(b *testing.B) {
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
	dir := b.TempDir()
	w, err := store.Create(dir, "f", layout, store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	if err := w.Images(func(views [][]byte, _ func(func() error) error) error {
		layout.SlotGeom(int64(len(views[0]))).Place(views, blocks, slots, nil)
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	if _, err := w.Commit(); err != nil {
		b.Fatal(err)
	}
	st, err := store.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	group := 64 * layout.ChunkTotal // one 256 KiB chunk group
	buf := make([]byte, group*bs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := st.Images(func(views [][]byte, _ func(func() error) error) error {
			geom := layout.SlotGeom(int64(len(views[0])))
			for lo := 0; lo < n; lo += group {
				hi := min(lo+group, n)
				geom.Gather(buf[:(hi-lo)*bs], views, slots[lo:hi])
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/block")
}
