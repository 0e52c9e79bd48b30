package por

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
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

// lentFile is an encoded file that lends its memory, as a store does, in
// views of view bytes, and is no MemTarget. It counts its loans and the
// guard calls made under them, and can be told to fail the loan.
type lentFile struct {
	*MemTarget
	layout  blockfile.Layout
	view    int
	loans   atomic.Int64
	guarded atomic.Int64
	failure error
}

func (f *lentFile) Layout() blockfile.Layout { return f.layout }

func (f *lentFile) Images(fn func(views [][]byte, guard func(func() error) error) error) error {
	f.loans.Add(1)
	if f.failure != nil {
		return f.failure
	}
	var views [][]byte
	for b := f.B; len(b) > 0; b = b[min(f.view, len(b)):] {
		views = append(views, b[:min(f.view, len(b))])
	}
	return fn(views, func(work func() error) error {
		f.guarded.Add(1)
		return work()
	})
}

// TestExtractStreamBatchGatherSeam pins the read side of the image seam:
// a source that lends its memory — here in views of seven segments, so
// chunk groups and verify slabs straddle many — is borrowed once per
// extraction, each chunk group is gathered in one batch under the
// lender's guard, clean or damaged the output is what the plain
// io.ReaderAt loop produces, a failed loan is the extraction's error, and
// a lender of another layout is refused before any work.
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
	groups := (layout.Chunks + groupChunks - 1) / groupChunks
	if groups < 3 {
		t.Fatalf("only %d chunk groups", groups)
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
			src := &lentFile{MemTarget: &MemTarget{B: data}, layout: layout, view: 7 * segSize}
			got := NewMemTarget(layout.OrigBytes)
			if err := e.ExtractStream("f", layout, src, got); err != nil {
				t.Fatalf("conc=%d %s: lent views: %v", conc, name, err)
			}
			if !bytes.Equal(got.B, want.B) || !bytes.Equal(got.B, file) {
				t.Fatalf("conc=%d %s: extraction from lent views differs", conc, name)
			}
			if l, g := src.loans.Load(), src.guarded.Load(); l != 1 || g <= groups {
				t.Fatalf("conc=%d %s: %d loans and %d guarded calls, want one loan and a guarded gather per chunk group (%d) besides the verify pass", conc, name, l, g, groups)
			}
		}
		boom := errors.New("boom")
		src := &lentFile{MemTarget: &MemTarget{B: enc.Data}, layout: layout, view: 7 * segSize, failure: boom}
		if err := e.ExtractStream("f", layout, src, NewMemTarget(layout.OrigBytes)); !errors.Is(err, boom) {
			t.Fatalf("conc=%d: loan failure surfaced as %v", conc, err)
		}
	}
	other, err := blockfile.NewLayout(layout.Params, layout.OrigBytes+1)
	if err != nil {
		t.Fatal(err)
	}
	src := &lentFile{MemTarget: &MemTarget{B: enc.Data}, layout: other, view: 7 * segSize}
	if err := master.ExtractStream("f", layout, src, NewMemTarget(layout.OrigBytes)); err == nil || src.guarded.Load() != 0 {
		t.Fatalf("a lender of another layout: err = %v after %d guarded calls, want refused before any", err, src.guarded.Load())
	}
}

// TestEncodeStreamIntoLentViews is the write side: an encode into a
// target that lends its memory in views of seven segments borrows it
// once, places and tags under the lender's guard, and writes the bytes
// Encode does.
func TestEncodeStreamIntoLentViews(t *testing.T) {
	file := testFile(97, 2*streamGroupBytes+77)
	for _, conc := range []int{1, 8} {
		e := newTestEncoder().WithConcurrency(conc)
		want, err := e.Encode("f", file)
		if err != nil {
			t.Fatal(err)
		}
		layout := want.Layout
		tgt := &lentFile{MemTarget: NewMemTarget(layout.EncodedBytes), layout: layout, view: 7 * layout.SegmentSize()}
		if _, err := e.EncodeStream("f", bytes.NewReader(file), int64(len(file)), tgt); err != nil {
			t.Fatalf("conc=%d: %v", conc, err)
		}
		if !bytes.Equal(tgt.B, want.Data) {
			t.Fatalf("conc=%d: bytes placed in lent views differ from Encode", conc)
		}
		if l, g := tgt.loans.Load(), tgt.guarded.Load(); l != 1 || g == 0 {
			t.Fatalf("conc=%d: %d loans, %d guarded calls; want one loan, its work guarded", conc, l, g)
		}
	}
}

// TestStreamFileToFile runs the plain-file shape: encode from a plain
// file into an *os.File target sized to the encoded file, then extract
// back file-to-file, comparing both the encoded bytes and the recovered
// plaintext against the in-memory pipeline. A plain file takes the
// per-block WriteAt/ReadAt path, so this checks the in-memory slot map
// against it in both directions: on the test geometry, and on the
// paper's 16-byte blocks clean and with every 40th segment damaged in
// both copies, which both extractions must repair alike.
func TestStreamFileToFile(t *testing.T) {
	for _, c := range []struct {
		name      string
		e         *Encoder
		size      int
		damageDiv int // damage every damageDiv-th segment; 0: none
	}{
		{"test-geometry", newTestEncoder().WithConcurrency(2), 5000, 0},
		{"paper-geometry", NewEncoder([]byte("file-to-file-master")).WithConcurrency(2), 200000, 0},
		{"paper-geometry-damaged", NewEncoder([]byte("file-to-file-master")).WithConcurrency(2), 200000, 40},
	} {
		e := c.e
		file := testFile(95, c.size)
		want, err := e.Encode("f", file)
		if err != nil {
			t.Fatal(err)
		}

		encF, err := os.CreateTemp(t.TempDir(), "enc")
		if err != nil {
			t.Fatal(err)
		}
		defer encF.Close()
		if err := encF.Truncate(want.Layout.EncodedBytes); err != nil {
			t.Fatal(err)
		}
		layout, err := e.EncodeStream("f", bytes.NewReader(file), int64(len(file)), encF)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(encF.Name())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Data) {
			t.Fatalf("%s: file-target encoding differs from in-memory encoding", c.name)
		}

		mem := want.Data
		if c.damageDiv > 0 {
			segSize := int64(layout.SegmentSize())
			for s := int64(3); s < layout.Segments; s += int64(c.damageDiv) {
				got[s*segSize+1] ^= 0x5a
			}
			if _, err := encF.WriteAt(got, 0); err != nil {
				t.Fatal(err)
			}
			mem = got
		}
		fromMem, err := e.Extract("f", layout, mem)
		if err != nil {
			t.Fatalf("%s: in-memory extract: %v", c.name, err)
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
		if !bytes.Equal(back, file) || !bytes.Equal(fromMem, file) {
			t.Fatalf("%s: file-to-file round trip mismatch (file path %v, in-memory %v)", c.name, bytes.Equal(back, file), bytes.Equal(fromMem, file))
		}
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

// TestStreamRefusesUndersizedMemTarget checks that a MemTarget shorter
// than the bytes the engine must write or read is refused with an error
// before any work — not a panic in a pipeline worker, nor a read past
// len(B) into the capacity behind it — on the test geometry and the
// paper's, and that one of the exact length or longer still works.
func TestStreamRefusesUndersizedMemTarget(t *testing.T) {
	for _, p := range []blockfile.Params{smallParams(), blockfile.DefaultParams()} {
		e := NewEncoder([]byte("undersized-master")).WithParams(p)
		file := testFile(99, 500_000)
		enc, err := e.Encode("f", file)
		if err != nil {
			t.Fatal(err)
		}
		layout := enc.Layout
		encode := func(n int64) func() ([]byte, error) {
			return func() ([]byte, error) {
				tgt := NewMemTarget(n)
				_, err := e.EncodeStream("f", bytes.NewReader(file), int64(len(file)), tgt)
				return tgt.B[:min(n, layout.EncodedBytes)], err
			}
		}
		extract := func(src []byte, n int64) func() ([]byte, error) {
			return func() ([]byte, error) {
				out := NewMemTarget(n)
				err := e.ExtractStream("f", layout, &MemTarget{B: src}, out)
				return out.B[:min(n, layout.OrigBytes)], err
			}
		}
		short := enc.Data[:len(enc.Data)-1] // the capacity still holds the last byte
		for _, c := range []struct {
			name string
			run  func() ([]byte, error)
			want []byte // nil: refused
		}{
			{"encode into half the target", encode(layout.EncodedBytes / 2), nil},
			{"encode into a byte short", encode(layout.EncodedBytes - 1), nil},
			{"encode into the exact target", encode(layout.EncodedBytes), enc.Data},
			{"encode into a longer target", encode(layout.EncodedBytes + 100), enc.Data},
			{"extract into half the output", extract(enc.Data, layout.OrigBytes/2), nil},
			{"extract into a byte short", extract(enc.Data, layout.OrigBytes-1), nil},
			{"extract from a byte short", extract(short, layout.OrigBytes), nil},
			{"extract from a longer source", extract(append(slices.Clip(enc.Data), 0), layout.OrigBytes+1), file},
		} {
			var got []byte
			err := func() (err error) {
				defer func() {
					if r := recover(); r != nil {
						err = fmt.Errorf("panic: %v", r)
					}
				}()
				if c.want == nil {
					_, err = c.run()
					if err == nil {
						return errors.New("accepted")
					}
					t.Logf("%d-byte blocks, %s: %v", p.BlockSize, c.name, err)
					return nil
				}
				got, err = c.run()
				return err
			}()
			if err != nil {
				t.Fatalf("%d-byte blocks, %s: %v", p.BlockSize, c.name, err)
			}
			if c.want != nil && !bytes.Equal(got, c.want) {
				t.Fatalf("%d-byte blocks, %s: wrong bytes", p.BlockSize, c.name)
			}
		}
	}
	m := &MemTarget{B: make([]byte, 4, 8)}
	defer func() {
		if recover() == nil {
			t.Fatal("Range past len(B) returned a slice of the capacity behind it")
		}
	}()
	m.Range(2, 4)
}

// recordingWriter is an extraction target that is no MemTarget: it
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
