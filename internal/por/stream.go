package por

// stream.go is the chunk-granular streaming engine behind the POR setup
// and recovery pipelines. Both the io.Reader/WriterAt streaming entry
// points (EncodeStream, ExtractStream) and the in-memory ones (Encode,
// Extract) run the same per-chunk stages —
//
//	read → RS-encode → CTR-encrypt → permuted scatter → tag pass
//
// and its inverse — over a fixed ring of reusable chunk-group buffers, so
// resident memory is O(workers × groupSize) instead of O(fileSize)
// multiples. The block permutation is applied as a per-group plan:
// prp.IndexBatch precomputes every group's block slots. Because every
// byte of the output is written exactly once at a deterministic offset
// with deterministic contents, the encoded bytes are identical across
// entry points and Concurrency settings.
//
// The engine has two paths, set out in doc.go: in memory — a MemTarget's
// slice, or the views an image lender such as a store lends for the call
// — where blocks are placed and gathered through the slot map
// (blockfile.SlotGeom) and tags stamped and verified in place; and one
// WriteAt/ReadAt per block through the interface.

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"

	"repro/internal/blockfile"
	"repro/internal/crypt"
	"repro/internal/parallel"
	"repro/internal/prp"
	"repro/internal/reedsolomon"
)

// StreamTarget is the random-access destination of a streaming encode:
// scattered block writes plus the tag pass's read-back. The target must
// already span the whole encoded file (Layout.EncodedBytes) when the
// encode starts: the engine never extends it, and the tag pass reads
// back slabs up to the last, not yet written, tag byte. A store Writer
// sizes its shards in Create and a MemTarget is sized at creation; an
// *os.File must be truncated to that size first.
type StreamTarget interface {
	io.ReaderAt
	io.WriterAt
}

// MemTarget adapts a fixed-size byte slice to the StreamTarget interface,
// with the direct-memory fast path. It is how the in-memory Encode and
// Extract run on the streaming engine, and how tests compare streamed
// and in-memory outputs byte for byte.
type MemTarget struct{ B []byte }

// NewMemTarget allocates a zeroed in-memory target of n bytes.
func NewMemTarget(n int64) *MemTarget { return &MemTarget{B: make([]byte, n)} }

// ReadAt implements io.ReaderAt with standard EOF semantics.
func (m *MemTarget) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, errors.New("por: negative read offset")
	}
	if off >= int64(len(m.B)) {
		return 0, io.EOF
	}
	n := copy(p, m.B[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// WriteAt implements io.WriterAt; writes must stay inside the fixed
// buffer (the target does not grow).
func (m *MemTarget) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 || off+int64(len(p)) > int64(len(m.B)) {
		return 0, fmt.Errorf("por: write [%d, %d) outside target of %d bytes", off, off+int64(len(p)), len(m.B))
	}
	return copy(m.B[off:], p), nil
}

// Range returns the backing bytes [off, off+n), sliced by length: a
// range past len(B) panics even where B's capacity would hold it.
func (m *MemTarget) Range(off, n int64) []byte { return slices.Clip(m.B)[off : off+n : off+n] }

// checkLen refuses a MemTarget shorter than the n bytes a call reads or
// writes, before any work; any other target is sized by its owner.
func checkLen(t any, n int64, what string) error {
	if m, ok := t.(*MemTarget); ok && int64(len(m.B)) < n {
		return fmt.Errorf("por: %s of %d bytes, want %d", what, len(m.B), n)
	}
	return nil
}

// imageLender is a target or source that lends the memory of the encoded
// file it holds for the length of one call: on unix, a store Writer (its
// writable shard mappings, once) and a committed Store (its read-only
// ones). Images runs fn over segment-aligned views of the file — in
// order, together covering it, every view but the last as long as the
// first — and guard, the lender's containment for touching them (the
// store reports a memory fault in a shard cut short as ErrCorrupt): every
// goroutine that touches a view does that work through guard. Layout is
// the layout the lender was made for.
type imageLender interface {
	Images(fn func(views [][]byte, guard func(func() error) error) error) error
	Layout() blockfile.Layout
}

// image is the encoded file's memory as a call holds it: views with their
// slot map, and the guard every access runs through.
type image struct {
	views [][]byte
	geom  blockfile.SlotGeom
	guard func(func() error) error
}

// unguarded is the guard of memory that cannot fault: it runs fn.
func unguarded(fn func() error) error { return fn() }

// lend returns how the call reaches the memory of t, of which it needs n
// bytes: a MemTarget's slice cut into views, or an image lender's loan,
// whose layout is checked inside it. Any other t lends a nil image: the
// engine reaches it one block per ReadAt or WriteAt.
func (sc *streamCoder) lend(t any, n int64, what string) (func(fn func(*image) error) error, error) {
	switch t := t.(type) {
	case *MemTarget:
		if err := checkLen(t, n, what); err != nil {
			return nil, err
		}
		geom, views := sc.layout.Views(t.Range(0, n))
		return func(fn func(*image) error) error { return fn(&image{views, geom, unguarded}) }, nil
	case imageLender:
		return func(fn func(*image) error) error {
			return t.Images(func(views [][]byte, guard func(func() error) error) error {
				if err := sc.sameLayout(t, what); err != nil {
					return err
				}
				return fn(&image{views, sc.layout.SlotGeom(int64(len(views[0]))), guard})
			})
		}, nil
	}
	if err := sc.sameLayout(t, what); err != nil {
		return nil, err
	}
	return func(fn func(*image) error) error { return fn(nil) }, nil
}

// sameLayout refuses a target or source made for another layout than the
// call's, a store of another file size above all: the encode's slots
// would not be the store's, and an extraction would write the wrong
// length. For an image lender it is also what keeps every slot the
// permutation yields inside the lent views.
func (sc *streamCoder) sameLayout(t any, what string) error {
	if h, ok := t.(interface{ Layout() blockfile.Layout }); ok {
		if l := h.Layout(); l != sc.layout {
			return fmt.Errorf("por: %s holds a %d-byte file (%+v), the call's layout is of %d bytes (%+v)", what, l.OrigBytes, l.Params, sc.layout.OrigBytes, sc.layout.Params)
		}
	}
	return nil
}

// streamGroupBytes targets the per-pipeline-item buffer size: chunks are
// processed in groups of roughly this many encoded bytes, so one in-flight
// item costs ~3× this (input + encoded + write-plan buffers). With the
// bounded pipeline depth this keeps the whole engine at a few MiB per
// worker regardless of file size.
const streamGroupBytes = 256 << 10

// streamPipelineDepth is the queue bound between the reader stage and the
// chunk workers: enough to keep workers fed while the producer reads
// ahead, small enough to bound in-flight buffers.
const streamPipelineDepth = 2

// streamCoder carries the per-call state shared by the encode and extract
// pipelines.
type streamCoder struct {
	fileID  string
	layout  blockfile.Layout
	keys    crypt.KeySet
	bc      *reedsolomon.BlockCode
	tagger  *crypt.Tagger
	perm    *prp.Feistel
	workers int

	chunkIn     int // bytes of data blocks per chunk
	chunkOut    int // bytes per error-corrected chunk
	groupChunks int // chunks processed per pipeline item
}

func (e *Encoder) newStreamCoder(fileID string, layout blockfile.Layout) (*streamCoder, error) {
	keys, bc, tagger, perm, err := e.pipeline(fileID, layout)
	if err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	sc := &streamCoder{
		fileID:   fileID,
		layout:   layout,
		keys:     keys,
		bc:       bc,
		tagger:   tagger,
		perm:     perm,
		workers:  e.Concurrency(),
		chunkIn:  layout.ChunkDataBytes(),
		chunkOut: layout.ChunkTotalBytes(),
	}
	sc.groupChunks = streamGroupBytes / sc.chunkOut
	if sc.groupChunks < 1 {
		sc.groupChunks = 1
	}
	return sc, nil
}

// chunkGroup is one pipeline item: a run of consecutive chunks plus the
// pooled buffer holding their (padded) data bytes.
type chunkGroup struct {
	firstChunk int64
	nChunks    int
	in         []byte // nChunks × chunkIn bytes
}

// ring is a fixed-capacity free list of reusable buffers — the bounded
// ring behind the pipeline's memory guarantee. Unlike sync.Pool (whose
// per-P caches miss when the producer allocates and a worker frees, so
// buffers accumulate and ratchet the GC heap target up), a channel free
// list caps total allocations at the in-flight bound: get reuses a free
// buffer or allocates, put parks it for the next get.
type ring[T any] struct {
	free chan T
	make func() T
}

func newRing[T any](capacity int, mk func() T) *ring[T] {
	return &ring[T]{free: make(chan T, capacity), make: mk}
}

func (r *ring[T]) get() T {
	select {
	case b := <-r.free:
		return b
	default:
		return r.make()
	}
}

func (r *ring[T]) put(b T) {
	select {
	case r.free <- b:
	default:
	}
}

// ringCap is the free-list capacity for a pipeline run: one buffer per
// worker plus the queued items plus the producer's in-hand buffer.
func (sc *streamCoder) ringCap() int { return sc.workers + streamPipelineDepth + 2 }

// readFullAt reads len(p) bytes at off, tolerating the io.EOF a
// conforming io.ReaderAt may return alongside a complete read that ends
// exactly at the end of the source (the last slab of an encoded file
// does exactly that).
func readFullAt(r io.ReaderAt, p []byte, off int64) error {
	n, err := r.ReadAt(p, off)
	if n == len(p) {
		return nil
	}
	if err == nil {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// encodeTo runs the full setup pipeline, reading size bytes from r and
// scattering the encoded file into w: into its memory where the engine
// can reach it, stamping the tags in place, else one WriteAt per block
// and a tag pass over the placed output.
func (sc *streamCoder) encodeTo(r io.Reader, size int64, w StreamTarget) error {
	lend, err := sc.lend(w, sc.layout.EncodedBytes, "encode target")
	if err != nil {
		return err
	}
	return lend(func(img *image) error {
		if img == nil {
			if err := sc.scatter(r, size, w, nil); err != nil {
				return err
			}
			return sc.tagPass(w)
		}
		p := &placement{image: img, seen: make([]uint64, (sc.layout.TotalBlocks+63)/64)}
		if err := sc.scatter(r, size, w, p); err != nil {
			return err
		}
		if p.placed != sc.layout.TotalBlocks {
			return fmt.Errorf("por: %d blocks placed, layout has %d", p.placed, sc.layout.TotalBlocks)
		}
		// F‴ → F̃: stamp every segment tag in place, view by view.
		for i, v := range img.views {
			if err := sc.tagImage(v, int64(i)*int64(len(img.views[0])), img.guard); err != nil {
				return err
			}
		}
		return nil
	})
}

// placement is an encode's store into an image, with the duplicate-slot
// bitmap and the placed count that together prove every block slot of
// the layout placed exactly once.
type placement struct {
	*image
	mu     sync.Mutex
	seen   []uint64 // one bit per block slot, set when it is placed
	placed int64
}

// place stores a batch of blocks at their slots under one lock per batch
// and the image's guard; a slot placed twice fails the encode.
func (p *placement) place(buf []byte, slots []uint64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.guard(func() error {
		if j := p.geom.Place(p.views, buf, slots, p.seen); j >= 0 {
			return fmt.Errorf("por: block slot %d placed twice", slots[j])
		}
		p.placed += int64(len(slots))
		return nil
	})
}

// scatter runs the pipeline up to the tags — read, RS-encode, encrypt,
// permute — and places every block, the segment padding's included,
// through p, or through w.WriteAt when p is nil.
func (sc *streamCoder) scatter(r io.Reader, size int64, w io.WriterAt, p *placement) error {
	inRing := newRing(sc.ringCap(), func() []byte { return make([]byte, sc.groupChunks*sc.chunkIn) })
	outRing := newRing(sc.ringCap(), func() []byte { return make([]byte, sc.groupChunks*sc.chunkOut) })
	dstRing := newRing(sc.ringCap(), func() []uint64 { return make([]uint64, sc.groupChunks*sc.layout.ChunkTotal) })

	remaining := size
	produce := func(emit func(chunkGroup) error) error {
		for first := int64(0); first < sc.layout.Chunks; first += int64(sc.groupChunks) {
			n := sc.groupChunks
			if left := sc.layout.Chunks - first; int64(n) > left {
				n = int(left)
			}
			in := inRing.get()[:n*sc.chunkIn]
			want := int64(len(in))
			if want > remaining {
				want = remaining
			}
			if _, err := io.ReadFull(r, in[:want]); err != nil {
				inRing.put(in[:cap(in)])
				return fmt.Errorf("read input at %d: %w", size-remaining, err)
			}
			remaining -= want
			for i := want; i < int64(len(in)); i++ {
				in[i] = 0 // chunk padding (and stale pooled bytes)
			}
			if err := emit(chunkGroup{firstChunk: first, nChunks: n, in: in}); err != nil {
				return err
			}
		}
		return nil
	}

	consume := func(g chunkGroup) error {
		defer inRing.put(g.in[:cap(g.in)])
		out := outRing.get()[:g.nChunks*sc.chunkOut]
		defer outRing.put(out[:cap(out)])

		// RS-encode each chunk of the group into the contiguous out run.
		for c := 0; c < g.nChunks; c++ {
			if err := sc.bc.EncodeChunkInto(out[c*sc.chunkOut:(c+1)*sc.chunkOut], g.in[c*sc.chunkIn:(c+1)*sc.chunkIn]); err != nil {
				return fmt.Errorf("ecc chunk %d: %w", g.firstChunk+int64(c), err)
			}
		}
		// Encrypt F′ → F″ at this group's keystream offset.
		if err := crypt.EncryptCTRAt(sc.keys.Enc, sc.fileID, out, g.firstChunk*int64(sc.chunkOut)); err != nil {
			return fmt.Errorf("encrypt: %w", err)
		}
		// Permuted scatter F″ → F‴ via the precomputed write plan.
		dp := dstRing.get()
		defer dstRing.put(dp)
		nBlocks := g.nChunks * sc.layout.ChunkTotal
		dsts := dp[:nBlocks]
		sc.perm.IndexBatch(uint64(g.firstChunk)*uint64(sc.layout.ChunkTotal), dsts)
		return sc.placeBlocks(w, p, out, dsts)
	}

	if err := parallel.Pipeline(sc.workers, streamPipelineDepth, produce, consume); err != nil {
		return err
	}

	// Segment-padding blocks [ECCBlocks, TotalBlocks): zero plaintext run
	// through the same keystream and scatter so nothing leaks. At most
	// SegmentBlocks-1 blocks — done inline.
	if pad := sc.layout.TotalBlocks - sc.layout.ECCBlocks; pad > 0 {
		bs := sc.layout.BlockSize
		buf := make([]byte, pad*int64(bs))
		if err := crypt.EncryptCTRAt(sc.keys.Enc, sc.fileID, buf, sc.layout.ECCBlocks*int64(bs)); err != nil {
			return fmt.Errorf("encrypt padding: %w", err)
		}
		dsts := make([]uint64, pad)
		sc.perm.IndexBatch(uint64(sc.layout.ECCBlocks), dsts)
		return sc.placeBlocks(w, p, buf, dsts)
	}
	return nil
}

// placeBlocks writes each block of buf to its permuted stored position:
// through p's slot map, or one WriteAt per block when p is nil.
func (sc *streamCoder) placeBlocks(w io.WriterAt, p *placement, buf []byte, dsts []uint64) error {
	bs := sc.layout.BlockSize
	if p != nil {
		return p.place(buf[:len(dsts)*bs], dsts)
	}
	for j, d := range dsts {
		if _, err := w.WriteAt(buf[j*bs:(j+1)*bs], sc.layout.StoredBlockOffset(int64(d))); err != nil {
			return fmt.Errorf("scatter block %d: %w", d, err)
		}
	}
	return nil
}

// tagImage stamps every segment tag of img, a segment-aligned piece of
// the placed output held in memory at byte offset off of the encoded
// file. Workers own contiguous segment ranges, each stamped through guard.
func (sc *streamCoder) tagImage(img []byte, off int64, guard func(func() error) error) error {
	segSize := int64(sc.layout.SegmentSize())
	if off%segSize != 0 || int64(len(img))%segSize != 0 {
		return fmt.Errorf("tag image [%d, %d) is not segment-aligned", off, off+int64(len(img)))
	}
	return parallel.ForRange(sc.workers, int(int64(len(img))/segSize), func(lo, hi int) error {
		return guard(func() error {
			sc.tagger.TagSlab(img[int64(lo)*segSize:int64(hi)*segSize], sc.layout.SegmentPayloadBytes(), uint64(off/segSize)+uint64(lo), sc.fileID)
			return nil
		})
	})
}

// tagPass tags the placed output of a target the engine reaches only
// through ReadAt and WriteAt, in slab-sized pieces by workers that own
// contiguous segment ranges: read a slab, stamp its tags, write the whole
// slab back sequentially.
func (sc *streamCoder) tagPass(w StreamTarget) error {
	segSize := int64(sc.layout.SegmentSize())
	slabSegs := int64(streamGroupBytes) / segSize
	if slabSegs < 1 {
		slabSegs = 1
	}
	return parallel.ForRange(sc.workers, int(sc.layout.Segments), func(lo, hi int) error {
		buf := make([]byte, slabSegs*segSize)
		for s0 := int64(lo); s0 < int64(hi); s0 += slabSegs {
			cnt := slabSegs
			if left := int64(hi) - s0; cnt > left {
				cnt = left
			}
			slab := buf[:cnt*segSize]
			if err := readFullAt(w, slab, s0*segSize); err != nil {
				return fmt.Errorf("tag pass read at segment %d: %w", s0, err)
			}
			sc.tagger.TagSlab(slab, sc.layout.SegmentPayloadBytes(), uint64(s0), sc.fileID)
			if _, err := w.WriteAt(slab, s0*segSize); err != nil {
				return fmt.Errorf("tag pass write at segment %d: %w", s0, err)
			}
		}
		return nil
	})
}

// extractTo inverts the pipeline: verify tags, gather and decrypt each
// chunk, error-correct it with suspect segments as erasures, and write
// the recovered plaintext (truncated to the original length) into w, one
// write per chunk group. It reads the encoded file in memory where the
// engine can reach it, else through r.ReadAt.
func (sc *streamCoder) extractTo(r io.ReaderAt, w io.WriterAt) error {
	if err := checkLen(w, sc.layout.OrigBytes, "extract output"); err != nil {
		return err
	}
	lend, err := sc.lend(r, sc.layout.EncodedBytes, "extract source")
	if err != nil {
		return err
	}
	return lend(func(img *image) error { return sc.extractFrom(r, img, w) })
}

// extractFrom is extractTo over img, or over r when img is nil.
func (sc *streamCoder) extractFrom(r io.ReaderAt, img *image, w io.WriterAt) error {
	// Pass 1: verify every segment tag → suspect map. One bool per
	// segment is ~1.2% of the encoded size with default geometry, the
	// only whole-file state the extractor keeps.
	suspectSeg, err := sc.verifyPass(r, img)
	if err != nil {
		return err
	}
	// A clean store — every store of an honest prover — has no suspect
	// segment, and then no chunk has an erasure hint to look for.
	anySuspect := slices.Contains(suspectSeg, true)

	// Pass 2: per chunk group — gather blocks from their permuted stored
	// positions, decrypt, decode with erasure hints, place plaintext.
	v := uint64(sc.layout.SegmentBlocks)
	encRing := newRing(sc.ringCap(), func() []byte { return make([]byte, sc.groupChunks*sc.chunkOut) })
	plainRing := newRing(sc.ringCap(), func() []byte { return make([]byte, sc.chunkIn) })
	srcRing := newRing(sc.ringCap(), func() []uint64 { return make([]uint64, sc.groupChunks*sc.layout.ChunkTotal) })
	nGroups := int((sc.layout.Chunks + int64(sc.groupChunks) - 1) / int64(sc.groupChunks))
	return parallel.For(sc.workers, nGroups, func(gi int) error {
		firstChunk := int64(gi) * int64(sc.groupChunks)
		nChunks := sc.groupChunks
		if left := sc.layout.Chunks - firstChunk; int64(nChunks) > left {
			nChunks = int(left)
		}
		enc := encRing.get()[:nChunks*sc.chunkOut]
		defer encRing.put(enc[:cap(enc)])
		sp := srcRing.get()
		defer srcRing.put(sp)
		srcs := sp[:nChunks*sc.layout.ChunkTotal]
		if err := sc.gatherGroup(r, img, firstChunk, enc, srcs); err != nil {
			return err
		}
		// Decrypt F″ → F′ at the group's keystream offset.
		if err := crypt.EncryptCTRAt(sc.keys.Enc, sc.fileID, enc, firstChunk*int64(sc.chunkOut)); err != nil {
			return fmt.Errorf("decrypt: %w", err)
		}
		// Decode each chunk, suspect blocks as erasures. Chunks with no
		// suspects — every chunk, for an honest prover — hand DecodeChunk
		// a nil hint list so the all-syndromes-zero parity pass skips the
		// full decoder per stripe. When a chunk has more erasures than
		// the code can absorb, or the erasure decode fails, fall back to
		// blind error decoding, which may still succeed if tags were
		// damaged but payloads intact. Chunk c's plaintext then moves to
		// enc[c·chunkIn:], over chunks already decoded (chunkIn <
		// chunkOut), so the group's plaintext ends up contiguous.
		plain := plainRing.get()
		defer plainRing.put(plain)
		var hintBuf [255]int // erasure scratch: a chunk has at most 255 blocks
		for c := 0; c < nChunks; c++ {
			ci := firstChunk + int64(c)
			hints := hintBuf[:0]
			if anySuspect {
				for b, s := range srcs[c*sc.layout.ChunkTotal : (c+1)*sc.layout.ChunkTotal] {
					if suspectSeg[s/v] {
						hints = append(hints, b)
					}
				}
			}
			erasures := hints
			if len(erasures) == 0 || len(erasures) > sc.layout.ChunkTotal-sc.layout.ChunkData {
				erasures = nil // no suspects, or beyond erasure budget: blind decode
			}
			chunk := enc[c*sc.chunkOut : (c+1)*sc.chunkOut]
			err := sc.bc.DecodeChunkInto(plain, chunk, erasures)
			if err != nil && erasures != nil {
				err = sc.bc.DecodeChunkInto(plain, chunk, nil)
			}
			if err != nil {
				return fmt.Errorf("chunk %d: %w: %v", ci, ErrUnrecoverable, err)
			}
			copy(enc[c*sc.chunkIn:], plain)
		}
		// Place the group's recovered data bytes, truncated to the
		// original file length.
		off := firstChunk * int64(sc.chunkIn)
		n := min(int64(nChunks*sc.chunkIn), sc.layout.OrigBytes-off)
		if n <= 0 {
			return nil
		}
		if _, err := w.WriteAt(enc[:n], off); err != nil {
			return fmt.Errorf("write chunks %d–%d: %w", firstChunk, firstChunk+int64(nChunks)-1, err)
		}
		return nil
	})
}

// gatherGroup fills enc with the permuted blocks of the chunk group that
// starts at firstChunk, in F″ order, and srcs with their block slots:
// out of img through the slot map, or one ReadAt per block from r when
// img is nil.
func (sc *streamCoder) gatherGroup(r io.ReaderAt, img *image, firstChunk int64, enc []byte, srcs []uint64) error {
	sc.perm.IndexBatch(uint64(firstChunk)*uint64(sc.layout.ChunkTotal), srcs)
	if img != nil {
		return img.guard(func() error {
			img.geom.Gather(enc, img.views, srcs)
			return nil
		})
	}
	bs := sc.layout.BlockSize
	for j, s := range srcs {
		if err := readFullAt(r, enc[j*bs:(j+1)*bs], sc.layout.StoredBlockOffset(int64(s))); err != nil {
			return fmt.Errorf("gather block %d: %w", s, err)
		}
	}
	return nil
}

// verifyPass checks every segment tag, in sequential slabs of img's views
// or read from r, and returns the per-segment suspect map.
func (sc *streamCoder) verifyPass(r io.ReaderAt, img *image) ([]bool, error) {
	segSize := int64(sc.layout.SegmentSize())
	segBytes := sc.layout.SegmentPayloadBytes()
	slabSegs := int64(streamGroupBytes) / segSize
	if slabSegs < 1 {
		slabSegs = 1
	}
	guard, viewSegs := unguarded, int64(0)
	if img != nil {
		guard, viewSegs = img.guard, int64(len(img.views[0]))/segSize
	}
	suspect := make([]bool, sc.layout.Segments)
	err := parallel.ForRange(sc.workers, int(sc.layout.Segments), func(lo, hi int) error {
		return guard(func() error {
			var buf []byte
			if img == nil {
				buf = make([]byte, slabSegs*segSize)
			}
			for s0 := int64(lo); s0 < int64(hi); {
				cnt := min(slabSegs, int64(hi)-s0)
				var slab []byte
				if img != nil {
					rel := s0 % viewSegs
					cnt = min(cnt, viewSegs-rel) // a slab stays in its view
					slab = img.views[s0/viewSegs][rel*segSize : (rel+cnt)*segSize]
				} else {
					slab = buf[:cnt*segSize]
					if err := readFullAt(r, slab, s0*segSize); err != nil {
						return fmt.Errorf("verify pass read at segment %d: %w", s0, err)
					}
				}
				sc.tagger.VerifySlab(slab, segBytes, uint64(s0), sc.fileID, suspect[s0:s0+cnt])
				s0 += cnt
			}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	return suspect, nil
}

// EncodeStream runs the full setup phase over exactly size bytes read
// sequentially from r, scattering the encoded file F̃ into w, and returns
// the resulting layout. Resident memory is bounded by the worker pool's
// chunk-group buffers — O(Concurrency × 256 KiB groups) — rather than
// any multiple of the file size, and reading overlaps compute through a
// bounded pipeline.
//
// w must support random-access writes plus read-back (the block
// permutation scatters blocks, and the tag pass re-reads each placed
// segment): an *os.File opened for read-write, or a MemTarget. Every
// output byte is written exactly once with deterministic contents, so
// the result is byte-identical to Encode at every Concurrency setting.
func (e *Encoder) EncodeStream(fileID string, r io.Reader, size int64, w StreamTarget) (blockfile.Layout, error) {
	layout, err := blockfile.NewLayout(e.params, size)
	if err != nil {
		return blockfile.Layout{}, fmt.Errorf("layout: %w", err)
	}
	sc, err := e.newStreamCoder(fileID, layout)
	if err != nil {
		return blockfile.Layout{}, err
	}
	if err := sc.encodeTo(r, size, w); err != nil {
		return blockfile.Layout{}, err
	}
	return layout, nil
}

// ExtractStream recovers the original file from the (possibly damaged)
// encoded bytes readable at r, writing the plaintext to w. Like Extract
// it treats segments with bad tags as Reed-Solomon erasures; memory is
// bounded by the worker pool's chunk-group buffers plus one bool per
// segment, never a multiple of the file size.
func (e *Encoder) ExtractStream(fileID string, layout blockfile.Layout, r io.ReaderAt, w io.WriterAt) error {
	sc, err := e.newStreamCoder(fileID, layout)
	if err != nil {
		return err
	}
	return sc.extractTo(r, w)
}
