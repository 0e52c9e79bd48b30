package por_test

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/blockfile"
	"repro/internal/experiments"
	"repro/internal/por"
)

// residentTestBytes sizes the resident-memory test: large enough that any
// buffer proportional to the file would break the bound, small enough
// that an encode into a plain file — one 16-byte WriteAt per block —
// stays short.
const residentTestBytes = 24 << 20

// TestEncodeStreamResidentMemory is the allocation-regression gate for the
// streaming pipeline over a plain file: the encode of a file into an
// *os.File, sized to the encoded file first, must keep no more than a
// quarter of the file's size live in the heap — a bound the in-memory
// path (about 1.2× the file) can never meet. Ten runs read 2.57–3.14 MiB of live-heap growth; the bound
// (6 MiB) is about twice the highest. Concurrency is pinned to 4 so
// the workers × chunk-group budget is machine-independent. The input
// lives on disk, not in the heap, so the sampled growth is what the
// pipeline itself retains.
func TestEncodeStreamResidentMemory(t *testing.T) {
	dir := t.TempDir()
	data := make([]byte, residentTestBytes)
	rand.New(rand.NewSource(1)).Read(data)
	inPath := filepath.Join(dir, "in")
	if err := os.WriteFile(inPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	data = nil
	enc := por.NewEncoder([]byte("resident-master")).WithConcurrency(4)
	layout, err := blockfile.NewLayout(enc.Params(), residentTestBytes)
	if err != nil {
		t.Fatal(err)
	}
	_, growth, err := experiments.MeasurePeakAlloc(func() error {
		in, err := os.Open(inPath)
		if err != nil {
			return err
		}
		defer in.Close()
		f, err := os.Create(filepath.Join(dir, "enc"))
		if err != nil {
			return err
		}
		if err := f.Truncate(layout.EncodedBytes); err != nil {
			f.Close()
			return err
		}
		if _, err := enc.EncodeStream("f", in, residentTestBytes, f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("peak heap growth %.2f MiB for a %d MiB file", float64(growth)/(1<<20), residentTestBytes>>20)
	if growth > residentTestBytes/4 {
		t.Fatalf("streaming encode held %.2f MiB live, over the %d MiB bound (file/4)", float64(growth)/(1<<20), residentTestBytes/4>>20)
	}
}
