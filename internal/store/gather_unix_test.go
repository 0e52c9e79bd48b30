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

// TestGatherBlocksMatchesReadAt is the seam's defining property, for the
// paper's 16-byte blocks (the load/store fast path) and fastParams' 4-byte
// ones (copy): whatever slots a batch names — in any order, with repeats,
// the first and last of every shard, the short last shard's — GatherBlocks
// returns the bytes per-block ReadAt returns at StoredBlockOffset; and a
// batch with a slot past the layout, the wrong block size or a wrongly
// sized buffer is refused whole, before buf is written.
func TestGatherBlocksMatchesReadAt(t *testing.T) {
	for _, tc := range []struct {
		name   string
		params blockfile.Params
	}{
		{"paper-16-byte-blocks", blockfile.DefaultParams()},
		{"fast-4-byte-blocks", fastParams},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, _, layout, _, _ := openGatherStore(t, tc.params, 61000, 4096)
			man := st.Manifest()
			if last := man.Shards[len(man.Shards)-1].Bytes; last >= man.ShardBytes || len(man.Shards) < 8 {
				t.Fatalf("%d shards, the last of %d bytes: want many, and a short last one", len(man.Shards), last)
			}
			bs, total := layout.BlockSize, uint64(layout.TotalBlocks)
			check := func(what string, slots []uint64) {
				t.Helper()
				got := make([]byte, len(slots)*bs)
				if err := st.GatherBlocks(got, bs, slots); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if !bytes.Equal(got, readSlots(t, st, layout, slots)) {
					t.Fatalf("%s: gathered bytes differ from per-block ReadAt", what)
				}
			}
			edges := shardEdges(layout, man)
			check("shard edges", edges)
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

			refused := func(what string, buf []byte, blockSize int, slots []uint64) {
				t.Helper()
				for i := range buf {
					buf[i] = 0xa5
				}
				if err := st.GatherBlocks(buf, blockSize, slots); err == nil {
					t.Errorf("%s: accepted", what)
				}
				if !bytes.Equal(buf, bytes.Repeat([]byte{0xa5}, len(buf))) {
					t.Errorf("%s: buf written before the batch was refused", what)
				}
			}
			for name, bad := range map[string]uint64{
				"TotalBlocks":       total,
				"2³² past the last": total + 1<<32,
				"far past":          1 << 63,
			} {
				slots := []uint64{0, total - 1, bad, edges[2]}
				refused("slot "+name, make([]byte, len(slots)*bs), bs, slots)
			}
			slots := []uint64{0, total - 1}
			refused("twice the block size", make([]byte, 2*len(slots)*bs), 2*bs, slots)
			refused("zero block size", nil, 0, nil)
			for _, n := range []int{0, bs - 1, 3 * bs} {
				refused(fmt.Sprintf("%d-byte buffer for two blocks", n), make([]byte, n), bs, slots)
			}
			if err := st.GatherBlocks(nil, bs, nil); err != nil {
				t.Errorf("empty batch: %v", err)
			}
		})
	}
}

// TestGatherSeesWriteAt is the coherence contract: once an extraction has
// made the mappings live, damage written through Store.WriteAt is what
// the next gather returns — the mapping is the page cache, not a copy —
// and the next extraction still recovers the plaintext from it.
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
	if err := st.GatherBlocks(before, bs, slots); err != nil {
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
	if err := st.GatherBlocks(after, bs, slots); err != nil {
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

// truncatedStore opens a store of 64 KiB shards and returns it with the
// path of shard 1 and that shard's first and last block slot; it skips
// when a page is too large for a cut inside the shard to leave a backed
// page and an unbacked one.
func truncatedStore(t *testing.T) (*store.Store, blockfile.Layout, string, uint64, uint64) {
	t.Helper()
	st, _, layout, _, dir := openGatherStore(t, fastParams, 200000, 64<<10)
	man := st.Manifest()
	if man.ShardBytes < 3*int64(os.Getpagesize()) {
		t.Skipf("shards of %d bytes are too small for a %d-byte page", man.ShardBytes, os.Getpagesize())
	}
	per := uint64(man.ShardBytes / int64(layout.SegmentSize()) * int64(layout.SegmentBlocks))
	return st, layout, filepath.Join(dir, "shard-00001.bin"), per, 2*per - 1
}

// TestGatherSurvivesTruncatedShard plays the hostile filesystem: a shard
// cut short underneath an open store must come back from GatherBlocks as
// ErrCorrupt — with the mapping made before the cut and after it — while
// the process lives on, the goroutine's fault setting is put back, and
// blocks that are still backed keep being served.
func TestGatherSurvivesTruncatedShard(t *testing.T) {
	for _, mapFirst := range []bool{true, false} {
		t.Run(fmt.Sprintf("mapped-before-cut=%v", mapFirst), func(t *testing.T) {
			st, layout, shard1, first, last := truncatedStore(t)
			bs := layout.BlockSize
			buf := make([]byte, 2*bs)
			if mapFirst {
				if err := st.GatherBlocks(buf, bs, []uint64{first, last}); err != nil {
					t.Fatal(err)
				}
			}
			if err := os.Truncate(shard1, int64(os.Getpagesize())); err != nil {
				t.Fatal(err)
			}

			prev := debug.SetPanicOnFault(false)
			defer debug.SetPanicOnFault(prev)
			err := st.GatherBlocks(buf, bs, []uint64{first, last})
			if !errors.Is(err, store.ErrCorrupt) {
				t.Fatalf("gather from the truncated shard: %v, want ErrCorrupt", err)
			}
			if debug.SetPanicOnFault(false) {
				t.Error("GatherBlocks left SetPanicOnFault on")
			}
			// Shard 0 and the surviving page of shard 1 are untouched.
			if err := st.GatherBlocks(buf, bs, []uint64{0, first}); err != nil {
				t.Fatalf("gather of still-backed blocks: %v", err)
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
			st, _, shard1, _, _ := truncatedStore(t)
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

// TestGatherAfterClose: Close unmaps under every write lock, so a late
// gather gets os.ErrClosed, and gathers racing Close and WriteAt either
// finish on live mappings or get that error — never a fault.
func TestGatherAfterClose(t *testing.T) {
	st, _, layout, _, _ := openGatherStore(t, fastParams, 60000, 4096)
	bs := layout.BlockSize
	slots := randomSlots(layout, 3, 512)

	var wg sync.WaitGroup
	started := make(chan struct{}, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, len(slots)*bs)
			for i := 0; ; i++ {
				if i == 1 {
					started <- struct{}{}
				}
				if g == 0 { // one goroutine plays the fault injector
					if _, err := st.WriteAt(buf[:bs], layout.StoredBlockOffset(int64(slots[i%len(slots)]))); err != nil {
						return // shard handles closed
					}
				}
				if err := st.GatherBlocks(buf, bs, slots); err != nil {
					if !errors.Is(err, os.ErrClosed) {
						t.Errorf("gather racing Close: %v", err)
					}
					return
				}
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-started
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if err := st.GatherBlocks(make([]byte, len(slots)*bs), bs, slots); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("gather after Close: %v, want os.ErrClosed", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestGatherTelemetry: an extraction through the seam adds its blocks and
// bytes to the gather counters once per call and leaves the pread
// counters to the sequential verify pass; hidden behind a bare
// io.ReaderAt the same extraction moves only the pread counters.
func TestGatherTelemetry(t *testing.T) {
	st, enc, layout, _, _ := openGatherStore(t, fastParams, 120000, 4096)
	blocks := float64(layout.Chunks * int64(layout.ChunkTotal))

	c0 := counters()
	if err := enc.ExtractStream("f", layout, st, por.NewMemTarget(layout.OrigBytes)); err != nil {
		t.Fatal(err)
	}
	c1 := counters()
	if d := c1["geoproof_store_gather_blocks_total"] - c0["geoproof_store_gather_blocks_total"]; d != blocks {
		t.Errorf("gather_blocks_total moved by %v, want %v", d, blocks)
	}
	if d := c1["geoproof_store_gather_bytes_total"] - c0["geoproof_store_gather_bytes_total"]; d != blocks*float64(layout.BlockSize) {
		t.Errorf("gather_bytes_total moved by %v, want %v", d, blocks*float64(layout.BlockSize))
	}
	seamPreads := c1["geoproof_store_preads_total"] - c0["geoproof_store_preads_total"]
	if seamPreads == 0 || seamPreads > float64(2*len(st.Manifest().Shards)) {
		t.Errorf("%v preads with the seam, want only the verify pass's slabs over %d shards", seamPreads, len(st.Manifest().Shards))
	}

	if err := enc.ExtractStream("f", layout, struct{ io.ReaderAt }{st}, por.NewMemTarget(layout.OrigBytes)); err != nil {
		t.Fatal(err)
	}
	c2 := counters()
	if c2["geoproof_store_gather_blocks_total"] != c1["geoproof_store_gather_blocks_total"] {
		t.Error("gather_blocks_total moved without the seam")
	}
	if d := c2["geoproof_store_preads_total"] - c1["geoproof_store_preads_total"]; d < blocks {
		t.Errorf("%v preads without the seam, want at least one per block (%v)", d, blocks)
	}
}

// FuzzGatherBlocks drives the gather with slots from the fuzzer — in
// range, on shard edges and at or past TotalBlocks — against a store of
// the paper's 16-byte blocks and one of fastParams' 4-byte blocks. Every
// batch must come back equal to per-block ReadAt, or, when a slot is out
// of range, be refused with buf untouched.
func FuzzGatherBlocks(f *testing.F) {
	type fixture struct {
		st     *store.Store
		layout blockfile.Layout
		edges  []uint64
	}
	var fx [2]fixture
	for i, p := range []blockfile.Params{blockfile.DefaultParams(), fastParams} {
		st, _, layout, _, _ := openGatherStore(f, p, 60000, 4096)
		fx[i] = fixture{st, layout, shardEdges(layout, st.Manifest())}
	}
	f.Add(false, []byte{0, 1, 2, 3, 4, 2, 9, 0, 0, 0})
	f.Add(true, []byte{2, 7, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff})
	f.Add(false, []byte{3, 0, 0, 0, 0})
	f.Add(true, []byte{0x7f, 1, 0, 0, 0, 2, 1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, fast bool, data []byte) {
		x := fx[0]
		if fast {
			x = fx[1]
		}
		total := uint64(x.layout.TotalBlocks)
		var slots []uint64
		bad := false
		// Five bytes per slot: a selector, then a 32-bit value.
		for i := 0; i+5 <= len(data) && len(slots) < 1024; i += 5 {
			v := uint64(binary.LittleEndian.Uint32(data[i+1:]))
			switch data[i] & 3 {
			case 0, 1:
				slots = append(slots, v%total)
			case 2:
				slots = append(slots, x.edges[v%uint64(len(x.edges))])
			case 3: // at or past TotalBlocks, by up to 2⁶²
				slots = append(slots, total+v<<(data[i]>>2&31))
				bad = true
			}
		}
		bs := x.layout.BlockSize
		buf := bytes.Repeat([]byte{0xa5}, len(slots)*bs)
		err := x.st.GatherBlocks(buf, bs, slots)
		if bad {
			if err == nil {
				t.Fatal("a batch with a slot past the layout was accepted")
			}
			if !bytes.Equal(buf, bytes.Repeat([]byte{0xa5}, len(buf))) {
				t.Fatal("buf written before the batch was refused")
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, readSlots(t, x.st, x.layout, slots)) {
			t.Fatal("gathered bytes differ from per-block ReadAt")
		}
	})
}

// BenchmarkStoreGather is the gather's own budget line, the mirror of
// BenchmarkStorePlace: GatherBlocks of an 8 MiB file's permuted blocks out
// of a committed store, in chunk-group batches as the extraction pipeline
// asks for them — without the extraction's verify pass, CTR, RS and
// output writes. Reported per block gathered. It sits in this file, not
// beside BenchmarkStorePlace, because the gather exists on unix only.
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
	if err := w.PlaceBlocks(blocks, bs, slots); err != nil {
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
		for lo := 0; lo < n; lo += group {
			hi := min(lo+group, n)
			if err := st.GatherBlocks(buf[:(hi-lo)*bs], bs, slots[lo:hi]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/block")
}
