//go:build unix

package store_test

import (
	"bytes"
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

// openGatherStore encodes size seeded bytes with fastParams into a store
// of shardTarget-byte shards and opens it.
func openGatherStore(t *testing.T, size int, shardTarget int64) (*store.Store, *por.Encoder, blockfile.Layout, []byte, string) {
	t.Helper()
	data := testData(t, size)
	enc := por.NewEncoder([]byte("gather-master")).WithParams(fastParams)
	dir := t.TempDir()
	layout, _ := encodeToStore(t, dir, enc, "f", data, store.Options{ShardTargetBytes: shardTarget})
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st, enc, layout, data, dir
}

// readBlocks is the reference gather: one ReadAt per block.
func readBlocks(t *testing.T, st *store.Store, blockSize int, offs []int64) []byte {
	t.Helper()
	buf := make([]byte, len(offs)*blockSize)
	for j, off := range offs {
		if _, err := st.ReadAt(buf[j*blockSize:(j+1)*blockSize], off); err != nil && err != io.EOF {
			t.Fatalf("ReadAt(%d): %v", off, err)
		}
	}
	return buf
}

// TestGatherBlocksMatchesReadAt is the seam's defining property on random
// batches: whatever offsets a batch names — block-aligned or not, in any
// order, with repeats, hugging both ends of every shard — GatherBlocks
// returns the bytes per-block ReadAt returns; and a batch with one
// invalid member is refused whole, before buf is written.
func TestGatherBlocksMatchesReadAt(t *testing.T) {
	st, _, layout, _, _ := openGatherStore(t, 60000, 4096)
	man := st.Manifest()
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 200; round++ {
		bs := 1 + rng.Intn(2*layout.BlockSize)
		offs := make([]int64, rng.Intn(300))
		for j := range offs {
			sh := rng.Intn(len(man.Shards))
			span := man.Shards[sh].Bytes - int64(bs)
			var rel int64
			switch rng.Intn(4) {
			case 0: // first block of the shard
			case 1:
				rel = span // last block of the shard
			default:
				rel = rng.Int63n(span + 1)
			}
			offs[j] = int64(sh)*man.ShardBytes + rel
		}
		got := make([]byte, len(offs)*bs)
		if err := st.GatherBlocks(got, bs, offs); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !bytes.Equal(got, readBlocks(t, st, bs, offs)) {
			t.Fatalf("round %d: gathered bytes differ from per-block ReadAt", round)
		}
	}

	bs := layout.BlockSize
	for name, bad := range map[string]int64{
		"negative":        -1,
		"past the end":    man.EncodedBytes - int64(bs) + 1,
		"far past":        1 << 62,
		"across a shard":  man.ShardBytes - 1,
		"across the last": int64(len(man.Shards)-1)*man.ShardBytes - int64(bs) + 1,
	} {
		offs := []int64{0, bad, man.ShardBytes}
		buf := bytes.Repeat([]byte{0xa5}, len(offs)*bs)
		if err := st.GatherBlocks(buf, bs, offs); err == nil {
			t.Errorf("offset %s (%d): accepted", name, bad)
		}
		if !bytes.Equal(buf, bytes.Repeat([]byte{0xa5}, len(buf))) {
			t.Errorf("offset %s (%d): buf written before the batch was refused", name, bad)
		}
	}
	for _, n := range []int{0, bs - 1, 3 * bs} {
		if err := st.GatherBlocks(make([]byte, n), bs, []int64{0, int64(bs)}); err == nil {
			t.Errorf("%d-byte buffer for two %d-byte blocks: accepted", n, bs)
		}
	}
	if err := st.GatherBlocks(nil, 0, nil); err == nil {
		t.Error("zero block size: accepted")
	}
	if err := st.GatherBlocks(nil, bs, nil); err != nil {
		t.Errorf("empty batch: %v", err)
	}
}

// TestGatherSeesWriteAt is the coherence contract: once an extraction has
// made the mappings live, damage written through Store.WriteAt is what
// the next gather returns — the mapping is the page cache, not a copy —
// and the next extraction still recovers the plaintext from it.
func TestGatherSeesWriteAt(t *testing.T) {
	st, enc, layout, data, _ := openGatherStore(t, 120000, 4096)
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
	rng := rand.New(rand.NewSource(9))
	offs := make([]int64, 40)
	for j := range offs {
		offs[j] = layout.StoredBlockOffset(rng.Int63n(layout.TotalBlocks))
	}
	before := make([]byte, len(offs)*bs)
	if err := st.GatherBlocks(before, bs, offs); err != nil {
		t.Fatal(err)
	}
	for j, off := range offs {
		bad := bytes.Clone(before[j*bs : (j+1)*bs])
		for i := range bad {
			bad[i] ^= 0xff
		}
		if _, err := st.WriteAt(bad, off); err != nil {
			t.Fatal(err)
		}
	}
	after := make([]byte, len(offs)*bs)
	if err := st.GatherBlocks(after, bs, offs); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(after, before) {
		t.Fatal("gather after WriteAt returned the bytes from before it")
	}
	if !bytes.Equal(after, readBlocks(t, st, bs, offs)) {
		t.Fatal("gather after WriteAt differs from ReadAt")
	}
	if err := st.Verify(); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("Verify after the damage: %v, want ErrCorrupt", err)
	}
	extract() // suspect segments → erasure decoding → the same plaintext
}

// TestGatherSurvivesTruncatedShard plays the hostile filesystem: a shard
// cut short underneath an open store must come back from GatherBlocks as
// ErrCorrupt — with the mapping made before the cut and after it — while
// the process lives on, the goroutine's fault setting is put back, and
// blocks that are still backed keep being served.
func TestGatherSurvivesTruncatedShard(t *testing.T) {
	for _, mapFirst := range []bool{true, false} {
		t.Run(fmt.Sprintf("mapped-before-cut=%v", mapFirst), func(t *testing.T) {
			st, _, layout, _, dir := openGatherStore(t, 200000, 64<<10)
			man := st.Manifest()
			if man.ShardBytes < 3*int64(os.Getpagesize()) {
				t.Skipf("shards of %d bytes are too small for a %d-byte page", man.ShardBytes, os.Getpagesize())
			}
			bs := layout.BlockSize
			first, last := man.ShardBytes, 2*man.ShardBytes-int64(bs) // both in shard 1
			buf := make([]byte, 2*bs)
			if mapFirst {
				if err := st.GatherBlocks(buf, bs, []int64{first, last}); err != nil {
					t.Fatal(err)
				}
			}
			if err := os.Truncate(filepath.Join(dir, "shard-00001.bin"), int64(os.Getpagesize())); err != nil {
				t.Fatal(err)
			}

			prev := debug.SetPanicOnFault(false)
			defer debug.SetPanicOnFault(prev)
			err := st.GatherBlocks(buf, bs, []int64{first, last})
			if !errors.Is(err, store.ErrCorrupt) {
				t.Fatalf("gather from the truncated shard: %v, want ErrCorrupt", err)
			}
			if debug.SetPanicOnFault(false) {
				t.Error("GatherBlocks left SetPanicOnFault on")
			}
			// Shard 0 and the surviving page of shard 1 are untouched.
			if err := st.GatherBlocks(buf, bs, []int64{0, first}); err != nil {
				t.Fatalf("gather of still-backed blocks: %v", err)
			}
		})
	}
}

// TestGatherAfterClose: Close unmaps under every write lock, so a late
// gather gets os.ErrClosed, and gathers racing Close and WriteAt either
// finish on live mappings or get that error — never a fault.
func TestGatherAfterClose(t *testing.T) {
	st, _, layout, _, _ := openGatherStore(t, 60000, 4096)
	bs := layout.BlockSize
	offs := make([]int64, 512)
	rng := rand.New(rand.NewSource(3))
	for j := range offs {
		offs[j] = layout.StoredBlockOffset(rng.Int63n(layout.TotalBlocks))
	}

	var wg sync.WaitGroup
	started := make(chan struct{}, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, len(offs)*bs)
			for i := 0; ; i++ {
				if i == 1 {
					started <- struct{}{}
				}
				if g == 0 { // one goroutine plays the fault injector
					if _, err := st.WriteAt(buf[:bs], offs[i%len(offs)]); err != nil {
						return // shard handles closed
					}
				}
				if err := st.GatherBlocks(buf, bs, offs); err != nil {
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
	if err := st.GatherBlocks(make([]byte, len(offs)*bs), bs, offs); !errors.Is(err, os.ErrClosed) {
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
	st, enc, layout, _, _ := openGatherStore(t, 120000, 4096)
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
