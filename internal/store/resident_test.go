package store_test

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/blockfile"
	"repro/internal/experiments"
	"repro/internal/por"
	"repro/internal/store"
)

// TestStoreEncodeResidentMemory is the store-backed allocation gate: a
// 64 MiB file encoded into a store and committed must keep no more than a
// ninth of the file's size live in the heap — the encode pipeline's
// chunk-group buffers and the engine's one-bit-per-block bitmap. Ten
// runs read 3.14–3.76 MiB of live-heap growth; the bound (≈ 7.1 MiB) is
// about twice the highest. The shards themselves are mapped page cache,
// not heap: the encode stores blocks and stamps the tags through the
// mappings, so the process's resident set grows to the encoded size
// while the heap does not. Concurrency is pinned to 4 so the budget is
// machine-independent; the input lives on disk, not in the heap.
func TestStoreEncodeResidentMemory(t *testing.T) {
	const size = 64 << 20
	dir := t.TempDir()
	data := make([]byte, size)
	rand.New(rand.NewSource(1)).Read(data)
	inPath := filepath.Join(dir, "in")
	if err := os.WriteFile(inPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	data = nil
	enc := por.NewEncoder([]byte("resident-master")).WithConcurrency(4)
	layout, err := blockfile.NewLayout(enc.Params(), size)
	if err != nil {
		t.Fatal(err)
	}
	_, growth, err := experiments.MeasurePeakAlloc(func() error {
		in, err := os.Open(inPath)
		if err != nil {
			return err
		}
		defer in.Close()
		w, err := store.Create(filepath.Join(dir, "store"), "f", layout, store.Options{})
		if err != nil {
			return err
		}
		defer w.Close()
		if _, err := enc.EncodeStream("f", in, size, w); err != nil {
			return err
		}
		_, err = w.Commit()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("peak heap growth %.2f MiB for a %d MiB file", float64(growth)/(1<<20), size>>20)
	if growth > size/9 {
		t.Fatalf("store-backed encode grew the live heap by %.2f MiB, over the %.2f MiB bound (file/9)", float64(growth)/(1<<20), float64(size/9)/(1<<20))
	}
}
