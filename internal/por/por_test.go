package por

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/blockfile"
)

// smallParams keeps unit tests fast: RS(15,11), 4-byte blocks, 2-block
// segments.
func smallParams() blockfile.Params {
	return blockfile.Params{
		BlockSize:     4,
		ChunkData:     11,
		ChunkTotal:    15,
		SegmentBlocks: 2,
		TagBits:       32,
	}
}

func newTestEncoder() *Encoder {
	return NewEncoder([]byte("test-master-secret")).WithParams(smallParams())
}

func testFile(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func TestEncodeShape(t *testing.T) {
	e := newTestEncoder()
	file := testFile(1, 500)
	enc, err := e.Encode("f1", file)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(enc.Data)) != enc.Layout.EncodedBytes {
		t.Fatalf("encoded %d bytes, layout says %d", len(enc.Data), enc.Layout.EncodedBytes)
	}
	if enc.FileID != "f1" {
		t.Fatalf("file id %q", enc.FileID)
	}
}

func TestEncodeHidesPlaintext(t *testing.T) {
	e := newTestEncoder()
	file := bytes.Repeat([]byte("SECRETDATA"), 50)
	enc, err := e.Encode("f1", file)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(enc.Data, []byte("SECRETDATA")) {
		t.Fatal("plaintext visible in encoded file")
	}
}

func TestExtractCleanRoundTrip(t *testing.T) {
	e := newTestEncoder()
	for _, n := range []int{0, 1, 43, 44, 500, 4096} {
		file := testFile(int64(n), n)
		enc, err := e.Encode("f", file)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		got, err := e.Extract("f", enc.Layout, enc.Data)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !bytes.Equal(got, file) {
			t.Fatalf("n=%d: round trip mismatch", n)
		}
	}
}

func TestExtractRecoversFromCorruption(t *testing.T) {
	e := newTestEncoder()
	file := testFile(3, 2000)
	enc, err := e.Encode("f", file)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one whole segment (payload and tag): the MAC flags it,
	// its blocks become erasures, and RS recovers.
	data := make([]byte, len(enc.Data))
	copy(data, enc.Data)
	rng := rand.New(rand.NewSource(9))
	segSize := enc.Layout.SegmentSize()
	rng.Read(data[2*segSize : 3*segSize])

	got, err := e.Extract("f", enc.Layout, data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, file) {
		t.Fatal("extract failed to repair single-segment corruption")
	}
}

func TestExtractRecoversScatteredCorruption(t *testing.T) {
	e := newTestEncoder()
	file := testFile(4, 5000)
	enc, _ := e.Encode("f", file)
	data := make([]byte, len(enc.Data))
	copy(data, enc.Data)
	rng := rand.New(rand.NewSource(10))
	// Corrupt ~1.5% of segments at random.
	nSeg := int(enc.Layout.Segments)
	segSize := enc.Layout.SegmentSize()
	for _, s := range rng.Perm(nSeg)[:nSeg/64+1] {
		off := s * segSize
		rng.Read(data[off : off+segSize])
	}
	got, err := e.Extract("f", enc.Layout, data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, file) {
		t.Fatal("extract failed under scattered corruption")
	}
}

// TestExtractCorruptPaddingSegment pins a geometry where SegmentBlocks
// does not divide ECCBlocks, so the last segment spans real ECC blocks
// *and* segment-padding blocks past every chunk. Corrupting it must still
// extract cleanly: padding suspects belong to no chunk and must not
// derail (or, regression: crash) the per-chunk suspect accounting.
func TestExtractCorruptPaddingSegment(t *testing.T) {
	params := blockfile.Params{
		BlockSize:     4,
		ChunkData:     11,
		ChunkTotal:    15,
		SegmentBlocks: 4,
		TagBits:       32,
	}
	e := NewEncoder([]byte("test-master-secret")).WithParams(params)
	file := testFile(6, 40) // 1 chunk: ECCBlocks=15, TotalBlocks=16
	enc, err := e.Encode("f", file)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt each segment in turn: exactly one of them holds the
	// permuted padding block, whichever the PRP chose, and every variant
	// stays within the (15,11) erasure budget of 4.
	rng := rand.New(rand.NewSource(13))
	segSize := enc.Layout.SegmentSize()
	for s := 0; s < int(enc.Layout.Segments); s++ {
		data := make([]byte, len(enc.Data))
		copy(data, enc.Data)
		rng.Read(data[s*segSize : (s+1)*segSize])
		got, err := e.Extract("f", enc.Layout, data)
		if err != nil {
			t.Fatalf("segment %d: %v", s, err)
		}
		if !bytes.Equal(got, file) {
			t.Fatalf("segment %d: extract failed to repair corruption", s)
		}
	}
}

func TestExtractFailsWhenDestroyed(t *testing.T) {
	e := newTestEncoder()
	file := testFile(5, 2000)
	enc, _ := e.Encode("f", file)
	data := make([]byte, len(enc.Data))
	copy(data, enc.Data)
	rand.New(rand.NewSource(11)).Read(data) // trash everything
	if _, err := e.Extract("f", enc.Layout, data); !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("got %v, want ErrUnrecoverable", err)
	}
}

func TestExtractWrongLength(t *testing.T) {
	e := newTestEncoder()
	enc, _ := e.Encode("f", testFile(6, 100))
	if _, err := e.Extract("f", enc.Layout, enc.Data[:10]); !errors.Is(err, ErrBadEncoding) {
		t.Fatalf("got %v, want ErrBadEncoding", err)
	}
}

// segmentAt copies segment i (payload‖tag) out of an encoded file.
func segmentAt(t testing.TB, ef *EncodedFile, i int64) []byte {
	t.Helper()
	off, err := ef.Layout.SegmentOffset(i)
	if err != nil {
		t.Fatal(err)
	}
	return append([]byte(nil), ef.Data[off:off+int64(ef.Layout.SegmentSize())]...)
}

// verifyOne checks a single (index, segment‖tag) pair.
func verifyOne(t *testing.T, e *Encoder, ef *EncodedFile, i int64, seg []byte) error {
	t.Helper()
	verdicts, err := e.VerifySegments(ef.FileID, ef.Layout, []int64{i}, [][]byte{seg})
	if err != nil {
		t.Fatal(err)
	}
	return verdicts[0]
}

func TestVerifySegment(t *testing.T) {
	e := newTestEncoder()
	enc, _ := e.Encode("f", testFile(7, 1000))

	seg := segmentAt(t, enc, 0)
	if err := verifyOne(t, e, enc, 0, seg); err != nil {
		t.Fatalf("genuine segment rejected: %v", err)
	}
	// Wrong index.
	if err := verifyOne(t, e, enc, 1, seg); !errors.Is(err, ErrTagMismatch) {
		t.Fatalf("wrong index: got %v", err)
	}
	// Tampered payload.
	seg[0] ^= 0xFF
	if err := verifyOne(t, e, enc, 0, seg); !errors.Is(err, ErrTagMismatch) {
		t.Fatalf("tampered: got %v", err)
	}
	// Out of range / wrong size.
	for _, i := range []int64{-1, enc.Layout.Segments} {
		if err := verifyOne(t, e, enc, i, seg); !errors.Is(err, ErrBadSegment) {
			t.Fatalf("index %d: got %v", i, err)
		}
	}
	if err := verifyOne(t, e, enc, 0, seg[:5]); !errors.Is(err, ErrBadEncoding) {
		t.Fatalf("short segment: got %v", err)
	}
}

func TestDifferentMastersCannotVerify(t *testing.T) {
	e1 := newTestEncoder()
	e2 := NewEncoder([]byte("another-master")).WithParams(smallParams())
	enc, _ := e1.Encode("f", testFile(17, 1000))
	for i := int64(0); i < 4; i++ {
		if err := verifyOne(t, e2, enc, i, segmentAt(t, enc, i)); !errors.Is(err, ErrTagMismatch) {
			t.Fatalf("foreign master on segment %d: got %v", i, err)
		}
	}
}

func TestDefaultParamsEncodeSmallFile(t *testing.T) {
	// Full paper parameters on a small file: 223·16 = 3568 bytes/chunk.
	e := NewEncoder([]byte("m"))
	file := testFile(18, 10000)
	enc, err := e.Encode("big", file)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Extract("big", enc.Layout, enc.Data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, file) {
		t.Fatal("default-params round trip mismatch")
	}
	if enc.Layout.SegmentSize() != 83 {
		t.Fatalf("segment size %d, want 83", enc.Layout.SegmentSize())
	}
}
