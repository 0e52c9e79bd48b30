package por

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/blockfile"
)

// layoutsUnderTest spans several geometries: the fast test shape, the
// paper's default parameters, and a shape whose block size is not a
// divisor of the AES block (exercising CTR shard alignment).
func layoutsUnderTest() map[string]blockfile.Params {
	return map[string]blockfile.Params{
		"small":   smallParams(),
		"default": blockfile.DefaultParams(),
		"odd": {
			BlockSize:     12,
			ChunkData:     9,
			ChunkTotal:    13,
			SegmentBlocks: 3,
			TagBits:       20,
		},
	}
}

func TestParallelEncodeMatchesSequential(t *testing.T) {
	for name, params := range layoutsUnderTest() {
		seq := NewEncoder([]byte("equiv-master")).WithParams(params).WithConcurrency(1)
		for _, n := range []int{0, 1, 333, 5000, 60000} {
			file := testFile(int64(n)+100, n)
			want, err := seq.Encode("f", file)
			if err != nil {
				t.Fatalf("%s n=%d: sequential: %v", name, n, err)
			}
			for _, conc := range []int{0, 2, 3, runtime.NumCPU() + 1} {
				par := seq.WithConcurrency(conc)
				got, err := par.Encode("f", file)
				if err != nil {
					t.Fatalf("%s n=%d conc=%d: %v", name, n, conc, err)
				}
				if !bytes.Equal(got.Data, want.Data) {
					t.Fatalf("%s n=%d conc=%d: encode not byte-identical to sequential", name, n, conc)
				}
			}
		}
	}
}

func TestParallelExtractMatchesSequential(t *testing.T) {
	for name, params := range layoutsUnderTest() {
		seq := NewEncoder([]byte("equiv-master")).WithParams(params).WithConcurrency(1)
		file := testFile(77, 20000)
		enc, err := seq.Encode("f", file)
		if err != nil {
			t.Fatal(err)
		}
		// Damage a couple of segments so the suspect/erasure path runs too.
		data := append([]byte(nil), enc.Data...)
		rng := rand.New(rand.NewSource(42))
		segSize := enc.Layout.SegmentSize()
		for _, s := range rng.Perm(int(enc.Layout.Segments))[:2] {
			rng.Read(data[s*segSize : (s+1)*segSize])
		}
		want, err := seq.Extract("f", enc.Layout, data)
		if err != nil {
			t.Fatalf("%s: sequential extract: %v", name, err)
		}
		if !bytes.Equal(want, file) {
			t.Fatalf("%s: sequential extract did not recover the file", name)
		}
		for _, conc := range []int{0, 2, runtime.NumCPU() + 1} {
			got, err := seq.WithConcurrency(conc).Extract("f", enc.Layout, data)
			if err != nil {
				t.Fatalf("%s conc=%d: %v", name, conc, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s conc=%d: extract not byte-identical to sequential", name, conc)
			}
		}
	}
}

// TestVerifySegmentsVerdictsAtEveryConcurrency: one batch holding
// genuine, tampered, out-of-range and short segments gets the same
// per-segment verdict at every worker count.
func TestVerifySegmentsVerdictsAtEveryConcurrency(t *testing.T) {
	e := newTestEncoder()
	enc, err := e.Encode("f", testFile(55, 8000))
	if err != nil {
		t.Fatal(err)
	}
	nSeg := enc.Layout.Segments

	indices := make([]int64, 0, nSeg+2)
	segs := make([][]byte, 0, nSeg+2)
	want := make([]error, 0, nSeg+2)
	for s := int64(0); s < nSeg; s++ {
		seg := segmentAt(t, enc, s)
		var w error
		if s%5 == 1 {
			seg[0] ^= 0xFF // tamper
			w = ErrTagMismatch
		}
		indices = append(indices, s)
		segs = append(segs, seg)
		want = append(want, w)
	}
	// Out-of-range index and short segment.
	indices = append(indices, nSeg, 0)
	segs = append(segs, segs[0], segs[0][:3])
	want = append(want, ErrBadSegment, ErrBadEncoding)

	for _, conc := range []int{1, 0, 4} {
		verdicts, err := e.WithConcurrency(conc).VerifySegments("f", enc.Layout, indices, segs)
		if err != nil {
			t.Fatalf("conc=%d: %v", conc, err)
		}
		for j, got := range verdicts {
			if (want[j] == nil) != (got == nil) || (got != nil && !errors.Is(got, want[j])) {
				t.Fatalf("conc=%d j=%d: verdict %v, want %v", conc, j, got, want[j])
			}
		}
	}

	if _, err := e.VerifySegments("f", enc.Layout, indices[:1], segs); !errors.Is(err, ErrBadEncoding) {
		t.Fatalf("mismatched lengths: got %v", err)
	}
}

func TestDerivedEncodersDoNotAliasMaster(t *testing.T) {
	e := NewEncoder([]byte("mutable-master-secret-0123456789"))
	for name, d := range map[string]*Encoder{
		"WithParams":      e.WithParams(smallParams()),
		"WithConcurrency": e.WithConcurrency(2),
	} {
		if &d.master[0] == &e.master[0] {
			t.Fatalf("%s shares the parent's master-key backing array", name)
		}
		if !bytes.Equal(d.master, e.master) {
			t.Fatalf("%s changed the master key value", name)
		}
	}
}

func TestConcurrencyAccessor(t *testing.T) {
	e := NewEncoder([]byte("m"))
	if got := e.Concurrency(); got != runtime.NumCPU() {
		t.Fatalf("default concurrency %d, want NumCPU %d", got, runtime.NumCPU())
	}
	if got := e.WithConcurrency(1).Concurrency(); got != 1 {
		t.Fatalf("WithConcurrency(1) → %d", got)
	}
	if got := e.WithConcurrency(-5).Concurrency(); got != runtime.NumCPU() {
		t.Fatalf("WithConcurrency(-5) → %d, want NumCPU", got)
	}
	if got := e.WithConcurrency(3).WithParams(smallParams()).Concurrency(); got != 3 {
		t.Fatalf("WithParams dropped concurrency: %d", got)
	}
}
