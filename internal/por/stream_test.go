package por

import (
	"bytes"
	"cmp"
	"errors"
	"io"
	"math/rand"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/blockfile"
)

// streamShapes is the shape sweep for the stream/in-memory equivalence
// tests with the smallParams geometry (11 data blocks of 4 bytes = one
// 44-byte chunk):
//
//	0      — empty file (still one padded block)
//	1      — sub-block tail
//	44     — exactly one chunk (chunk == file)
//	43, 45 — one byte either side of a chunk boundary
//	500    — several chunks with an odd tail
//	4096   — block-aligned multi-chunk
var streamShapes = []int{0, 1, 43, 44, 45, 500, 4096}

// TestEncodeStreamMatchesEncode is the core equivalence property: for the
// shape sweep at Concurrency 1 (exact sequential), 0 (NumCPU) and 8, the
// streamed encoding into a MemTarget is byte-identical to Encode, and the
// returned layouts agree.
func TestEncodeStreamMatchesEncode(t *testing.T) {
	for _, conc := range []int{1, 0, 8} {
		e := newTestEncoder().WithConcurrency(conc)
		for _, n := range streamShapes {
			file := testFile(int64(n)+100, n)
			want, err := e.Encode("f", file)
			if err != nil {
				t.Fatalf("conc=%d n=%d: encode: %v", conc, n, err)
			}
			tgt := NewMemTarget(want.Layout.EncodedBytes)
			layout, err := e.EncodeStream("f", bytes.NewReader(file), int64(len(file)), tgt)
			if err != nil {
				t.Fatalf("conc=%d n=%d: encode stream: %v", conc, n, err)
			}
			if layout != want.Layout {
				t.Fatalf("conc=%d n=%d: stream layout differs", conc, n)
			}
			if !bytes.Equal(tgt.B, want.Data) {
				t.Fatalf("conc=%d n=%d: streamed bytes differ from Encode", conc, n)
			}
		}
	}
}

// TestExtractStreamMatchesExtract checks the recovery side of the sweep:
// streaming extraction of a clean encoding reproduces the original file
// and matches Extract exactly.
func TestExtractStreamMatchesExtract(t *testing.T) {
	for _, conc := range []int{1, 0, 8} {
		e := newTestEncoder().WithConcurrency(conc)
		for _, n := range streamShapes {
			file := testFile(int64(n)+200, n)
			enc, err := e.Encode("f", file)
			if err != nil {
				t.Fatalf("conc=%d n=%d: %v", conc, n, err)
			}
			want, err := e.Extract("f", enc.Layout, enc.Data)
			if err != nil {
				t.Fatalf("conc=%d n=%d: extract: %v", conc, n, err)
			}
			out := NewMemTarget(enc.Layout.OrigBytes)
			if err := e.ExtractStream("f", enc.Layout, &MemTarget{B: enc.Data}, out); err != nil {
				t.Fatalf("conc=%d n=%d: extract stream: %v", conc, n, err)
			}
			if !bytes.Equal(out.B, want) || !bytes.Equal(out.B, file) {
				t.Fatalf("conc=%d n=%d: streamed extraction mismatch", conc, n)
			}
		}
	}
}

// TestExtractStreamRecoversFromCorruption injects segment corruption into
// the encoded bytes and checks the streaming extractor repairs it through
// the MAC-erasure path, matching the in-memory Extract verdict.
func TestExtractStreamRecoversFromCorruption(t *testing.T) {
	for _, conc := range []int{1, 8} {
		e := newTestEncoder().WithConcurrency(conc)
		file := testFile(91, 3000)
		enc, err := e.Encode("f", file)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(92))
		segSize := enc.Layout.SegmentSize()
		data := append([]byte(nil), enc.Data...)
		// Corrupt three scattered whole segments (payload and tag).
		for _, s := range rng.Perm(int(enc.Layout.Segments))[:3] {
			rng.Read(data[s*segSize : (s+1)*segSize])
		}
		want, err := e.Extract("f", enc.Layout, data)
		if err != nil {
			t.Fatalf("conc=%d: in-memory extract: %v", conc, err)
		}
		out := NewMemTarget(enc.Layout.OrigBytes)
		if err := e.ExtractStream("f", enc.Layout, &MemTarget{B: data}, out); err != nil {
			t.Fatalf("conc=%d: stream extract: %v", conc, err)
		}
		if !bytes.Equal(out.B, want) || !bytes.Equal(out.B, file) {
			t.Fatalf("conc=%d: corrupted round trip mismatch", conc)
		}
	}
}

// TestExtractStreamFailsWhenDestroyed mirrors TestExtractFailsWhenDestroyed
// for the streaming path: wholesale corruption must surface
// ErrUnrecoverable, not silently wrong bytes.
func TestExtractStreamFailsWhenDestroyed(t *testing.T) {
	e := newTestEncoder()
	file := testFile(93, 2000)
	enc, err := e.Encode("f", file)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(94))
	data := make([]byte, len(enc.Data))
	rng.Read(data)
	out := NewMemTarget(enc.Layout.OrigBytes)
	if err := e.ExtractStream("f", enc.Layout, &MemTarget{B: data}, out); err == nil {
		t.Fatal("extraction of destroyed data succeeded")
	}
}

// batchSource is an encoded file that offers the BlockGatherer seam and no
// direct-memory Range: it records what the extractor hands it, and can be
// told to fail.
type batchSource struct {
	io.ReaderAt
	b       []byte
	layout  blockfile.Layout
	calls   atomic.Int64
	blocks  atomic.Int64
	failure error
}

func (s *batchSource) GatherBlocks(buf []byte, blockSize int, slots []uint64) error {
	s.calls.Add(1)
	s.blocks.Add(int64(len(slots)))
	if s.failure != nil {
		return s.failure
	}
	if len(buf) != len(slots)*blockSize {
		return errors.New("batch buffer and slots disagree")
	}
	for j, b := range slots {
		off := s.layout.StoredBlockOffset(int64(b))
		copy(buf[j*blockSize:(j+1)*blockSize], s.b[off:off+int64(blockSize)])
	}
	return nil
}

// TestExtractStreamBatchGatherSeam pins the read-side seam's contract: a
// source that implements BlockGatherer is asked for each chunk group's
// blocks in exactly one call (never block by block through ReadAt), clean
// or damaged the output is what the plain io.ReaderAt loop produces, and
// a gather failure is the extraction's error.
func TestExtractStreamBatchGatherSeam(t *testing.T) {
	// Large enough for several chunk groups of smallParams' 60-byte chunks.
	file := testFile(95, 3*streamGroupBytes)
	master := newTestEncoder()
	enc, err := master.Encode("f", file)
	if err != nil {
		t.Fatal(err)
	}
	layout := enc.Layout
	groupChunks := int64(streamGroupBytes / layout.ChunkTotalBytes())
	wantCalls := (layout.Chunks + groupChunks - 1) / groupChunks
	if wantCalls < 3 {
		t.Fatalf("only %d chunk groups", wantCalls)
	}
	damaged := append([]byte(nil), enc.Data...)
	rng := rand.New(rand.NewSource(96))
	segSize := layout.SegmentSize()
	for _, s := range rng.Perm(int(layout.Segments))[:5] {
		rng.Read(damaged[s*segSize : (s+1)*segSize])
	}

	for _, conc := range []int{1, 0, 8} {
		e := master.WithConcurrency(conc)
		for name, data := range map[string][]byte{"clean": enc.Data, "damaged": damaged} {
			want := NewMemTarget(layout.OrigBytes)
			if err := e.ExtractStream("f", layout, bytes.NewReader(data), want); err != nil {
				t.Fatalf("conc=%d %s: ReadAt loop: %v", conc, name, err)
			}
			src := &batchSource{ReaderAt: bytes.NewReader(data), b: data, layout: layout}
			got := NewMemTarget(layout.OrigBytes)
			if err := e.ExtractStream("f", layout, src, got); err != nil {
				t.Fatalf("conc=%d %s: batch seam: %v", conc, name, err)
			}
			if !bytes.Equal(got.B, want.B) || !bytes.Equal(got.B, file) {
				t.Fatalf("conc=%d %s: batch-gathered extraction differs", conc, name)
			}
			if c, b := src.calls.Load(), src.blocks.Load(); c != wantCalls || b != layout.Chunks*int64(layout.ChunkTotal) {
				t.Fatalf("conc=%d %s: %d gather calls for %d blocks, want %d calls for %d", conc, name, c, b, wantCalls, layout.Chunks*int64(layout.ChunkTotal))
			}
		}
		boom := errors.New("boom")
		src := &batchSource{ReaderAt: bytes.NewReader(enc.Data), b: enc.Data, layout: layout, failure: boom}
		if err := e.ExtractStream("f", layout, src, NewMemTarget(layout.OrigBytes)); !errors.Is(err, boom) {
			t.Fatalf("conc=%d: gather failure surfaced as %v", conc, err)
		}
	}
}

// TestStreamFileToFile runs the advertised production shape: encode from
// a plain file into an *os.File target, then extract back file-to-file,
// comparing both the encoded bytes and the recovered plaintext against
// the in-memory pipeline.
func TestStreamFileToFile(t *testing.T) {
	e := newTestEncoder().WithConcurrency(2)
	file := testFile(95, 5000)
	want, err := e.Encode("f", file)
	if err != nil {
		t.Fatal(err)
	}

	encF, err := os.CreateTemp(t.TempDir(), "enc")
	if err != nil {
		t.Fatal(err)
	}
	defer encF.Close()
	layout, err := e.EncodeStream("f", bytes.NewReader(file), int64(len(file)), encF)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(encF.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Data) {
		t.Fatal("file-target encoding differs from in-memory encoding")
	}

	outF, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer outF.Close()
	if err := e.ExtractStream("f", layout, encF, outF); err != nil {
		t.Fatal(err)
	}
	back, err := os.ReadFile(outF.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, file) {
		t.Fatal("file-to-file round trip mismatch")
	}
}

// TestEncodeStreamShortReader checks that a reader that cannot supply the
// promised size surfaces a read error instead of silently encoding a
// truncated file.
func TestEncodeStreamShortReader(t *testing.T) {
	e := newTestEncoder()
	file := testFile(96, 100)
	tgt := NewMemTarget(1 << 20)
	if _, err := e.EncodeStream("f", bytes.NewReader(file), 500, tgt); err == nil {
		t.Fatal("short reader accepted")
	}
}

// TestEncodeStreamDefaultParams runs one default-geometry (RS 255/223,
// 16-byte blocks) equivalence pass so the paper's real parameters are
// covered, not only the fast test geometry.
func TestEncodeStreamDefaultParams(t *testing.T) {
	e := NewEncoder([]byte("stream-default-master"))
	file := testFile(97, 300000) // ~84 chunks with an odd tail
	want, err := e.Encode("f", file)
	if err != nil {
		t.Fatal(err)
	}
	tgt := NewMemTarget(want.Layout.EncodedBytes)
	if _, err := e.EncodeStream("f", bytes.NewReader(file), int64(len(file)), tgt); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tgt.B, want.Data) {
		t.Fatal("default-params streamed bytes differ from Encode")
	}
	out := NewMemTarget(want.Layout.OrigBytes)
	if err := e.ExtractStream("f", want.Layout, tgt, out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.B, file) {
		t.Fatal("default-params stream round trip mismatch")
	}
}

func TestMemTargetBounds(t *testing.T) {
	m := NewMemTarget(10)
	if _, err := m.WriteAt([]byte{1, 2}, 9); err == nil {
		t.Fatal("overflowing WriteAt accepted")
	}
	if _, err := m.WriteAt([]byte{1, 2}, -1); err == nil {
		t.Fatal("negative WriteAt accepted")
	}
	if n, err := m.WriteAt([]byte{1, 2}, 8); n != 2 || err != nil {
		t.Fatalf("WriteAt=%d,%v", n, err)
	}
	buf := make([]byte, 4)
	if n, err := m.ReadAt(buf, 8); n != 2 || err == nil {
		t.Fatalf("ReadAt past end: n=%d err=%v, want short read with EOF", n, err)
	}
	if _, err := m.ReadAt(buf, 11); err == nil {
		t.Fatal("ReadAt beyond end accepted")
	}
}

// recordingWriter is an extraction target without the Range fast path: it
// records every WriteAt's span, and can be told to fail.
type recordingWriter struct {
	mu      sync.Mutex
	b       []byte
	spans   [][2]int64 // [off, end) per call
	failure error
}

func (w *recordingWriter) WriteAt(p []byte, off int64) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.spans = append(w.spans, [2]int64{off, off + int64(len(p))})
	if w.failure != nil {
		return 0, w.failure
	}
	if off < 0 || off+int64(len(p)) > int64(len(w.b)) {
		return 0, errors.New("write outside the output")
	}
	return copy(w.b[off:], p), nil
}

// TestExtractStreamWritesPerGroup pins the output side of extraction: a
// plain io.WriterAt sees one write per chunk group, the writes are
// disjoint and cover exactly [0, OrigBytes) — the last one truncated
// inside a chunk — the bytes are those the MemTarget path produces, and a
// failing writer's error is the extraction's.
func TestExtractStreamWritesPerGroup(t *testing.T) {
	file := testFile(98, 3*streamGroupBytes+123)
	master := newTestEncoder()
	enc, err := master.Encode("f", file)
	if err != nil {
		t.Fatal(err)
	}
	layout := enc.Layout
	if layout.OrigBytes%int64(layout.ChunkDataBytes()) == 0 {
		t.Fatal("the file ends on a chunk boundary: the last write would not be truncated")
	}
	groupChunks := int64(streamGroupBytes / layout.ChunkTotalBytes())
	wantWrites := int((layout.Chunks + groupChunks - 1) / groupChunks)
	for _, conc := range []int{1, 0, 8} {
		e := master.WithConcurrency(conc)
		want := NewMemTarget(layout.OrigBytes)
		if err := e.ExtractStream("f", layout, &MemTarget{B: enc.Data}, want); err != nil {
			t.Fatal(err)
		}
		w := &recordingWriter{b: make([]byte, layout.OrigBytes)}
		if err := e.ExtractStream("f", layout, bytes.NewReader(enc.Data), w); err != nil {
			t.Fatalf("conc=%d: %v", conc, err)
		}
		if len(w.spans) != wantWrites {
			t.Fatalf("conc=%d: %d writes, want one per chunk group (%d)", conc, len(w.spans), wantWrites)
		}
		slices.SortFunc(w.spans, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
		var end int64
		for _, s := range w.spans {
			if s[0] != end || s[1] <= s[0] {
				t.Fatalf("conc=%d: write [%d, %d) after the writes covering [0, %d)", conc, s[0], s[1], end)
			}
			end = s[1]
		}
		if end != layout.OrigBytes {
			t.Fatalf("conc=%d: writes cover [0, %d), want [0, %d)", conc, end, layout.OrigBytes)
		}
		if !bytes.Equal(w.b, want.B) || !bytes.Equal(w.b, file) {
			t.Fatalf("conc=%d: written bytes differ from the MemTarget extraction", conc)
		}

		boom := errors.New("boom")
		failing := &recordingWriter{b: make([]byte, layout.OrigBytes), failure: boom}
		if err := e.ExtractStream("f", layout, bytes.NewReader(enc.Data), failing); !errors.Is(err, boom) {
			t.Fatalf("conc=%d: failing writer surfaced as %v", conc, err)
		}
	}
}
