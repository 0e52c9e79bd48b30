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
// A MemTarget's memory is taken once per call and its blocks are placed
// and gathered through the slot map (blockfile.SlotGeom), free of
// per-block interface-call and copy overhead; the store's seams and the
// plain io.WriterAt/io.ReaderAt path are set out in doc.go.

import (
	"errors"
	"fmt"
	"io"
	"slices"

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

// BlockPlacer is the optional batch seam for targets that can absorb the
// permuted scatter more cleverly than one WriteAt per block — the store's
// mapped placer (internal/store.Writer) implements it.
// PlaceBlocks receives len(slots) blocks of blockSize bytes packed in buf
// and their permuted block indices — block b of F‴ belongs at
// blockfile.Layout.StoredBlockOffset(b); calls may come concurrently from
// pipeline workers, and buf and slots are only valid for the duration of
// the call.
type BlockPlacer interface {
	PlaceBlocks(buf []byte, blockSize int, slots []uint64) error
}

// BlockGatherer is the read-side mirror of BlockPlacer, for sources that
// can collect the permuted blocks of a chunk group more cheaply than one
// ReadAt per block — a committed store (internal/store.Store) copies them
// out of its mapped shards. GatherBlocks fills buf with the len(slots)
// blocks of blockSize bytes at the given permuted block indices — block b
// of F‴ lies at blockfile.Layout.StoredBlockOffset(b) — in order; calls
// may come concurrently from pipeline workers, and buf and slots are only
// valid for the duration of the call.
type BlockGatherer interface {
	GatherBlocks(buf []byte, blockSize int, slots []uint64) error
}

// placementFinisher is the companion seam to BlockPlacer for targets that
// materialise the encoded file from their staged placements in memory,
// one segment-aligned image at a time. After the last placement the
// engine calls FlushPlacements once; the target calls finish on every
// image — complete but for its tag bytes, at byte offset off of the
// encoded file, images in ascending order and together covering the file
// — before it writes the image out, and fails the flush if finish does.
// The engine's finish stamps the segment tags, so for such a target there
// is no tag pass and nothing is read back. guard is the target's
// containment for touching its images: every goroutine finish starts
// runs its work through it, as the target's own goroutine does (the
// store reports a memory fault in a mapped image as ErrCorrupt there).
type placementFinisher interface {
	FlushPlacements(finish func(img []byte, off int64, guard func(func() error) error) error) error
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

// memImage returns the first n bytes of t's memory when t is a MemTarget,
// else nil; a MemTarget shorter than n is an error, found before any work.
func memImage(t any, n int64, what string) ([]byte, error) {
	m, ok := t.(*MemTarget)
	if !ok {
		return nil, nil
	}
	if int64(len(m.B)) < n {
		return nil, fmt.Errorf("por: %s of %d bytes, want %d", what, len(m.B), n)
	}
	return m.Range(0, n), nil
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
// scattering the encoded file into w.
func (sc *streamCoder) encodeTo(r io.Reader, size int64, w StreamTarget) error {
	placer, _ := w.(BlockPlacer)
	img, err := memImage(w, sc.layout.EncodedBytes, "encode target")
	if err != nil {
		return err
	}
	slots, views := sc.layout.Views(img)

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
		return sc.placeBlocks(w, placer, slots, views, out, dsts)
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
		if err := sc.placeBlocks(w, placer, slots, views, buf, dsts); err != nil {
			return err
		}
	}

	// F‴ → F̃: compute and embed every segment tag — in the images a staged
	// placer materialises as it drains, or over the placed output.
	if fin, ok := w.(placementFinisher); ok && placer != nil {
		if err := fin.FlushPlacements(sc.tagImage); err != nil {
			return fmt.Errorf("flush placements: %w", err)
		}
		return nil
	}
	return sc.tagPass(w, img)
}

// placeBlocks writes each block of buf to its permuted stored position: a
// placer target takes the whole batch and its block indices in one call,
// an in-memory one (views not nil) is stored through the slot map.
func (sc *streamCoder) placeBlocks(w io.WriterAt, placer BlockPlacer, slots blockfile.SlotGeom, views [][]byte, buf []byte, dsts []uint64) error {
	bs := sc.layout.BlockSize
	if placer != nil {
		if err := placer.PlaceBlocks(buf[:len(dsts)*bs], bs, dsts); err != nil {
			return fmt.Errorf("place blocks: %w", err)
		}
		return nil
	}
	if views != nil {
		slots.Place(views, buf[:len(dsts)*bs], dsts, nil)
		return nil
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

// unguarded is the guard of memory that cannot fault: it runs fn.
func unguarded(fn func() error) error { return fn() }

// tagPass tags the already-placed output of a target that did not take
// the tags while materialising. Backing memory is stamped in place;
// file-backed targets are processed in slab-sized pieces by workers that
// own contiguous segment ranges: read a slab, stamp its tags, write the
// whole slab back sequentially.
func (sc *streamCoder) tagPass(w StreamTarget, img []byte) error {
	if img != nil {
		return sc.tagImage(img, 0, unguarded)
	}
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
// write per chunk group.
func (sc *streamCoder) extractTo(r io.ReaderAt, w io.WriterAt) error {
	gatherer, _ := r.(BlockGatherer)
	img, err := memImage(r, sc.layout.EncodedBytes, "extract source")
	if err != nil {
		return err
	}
	slots, views := sc.layout.Views(img)
	if _, err := memImage(w, sc.layout.OrigBytes, "extract output"); err != nil {
		return err
	}

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
	bs := sc.layout.BlockSize
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
		nBlocks := nChunks * sc.layout.ChunkTotal
		srcs := sp[:nBlocks]
		sc.perm.IndexBatch(uint64(firstChunk)*uint64(sc.layout.ChunkTotal), srcs)

		// Gather every block of the group from its stored position.
		switch {
		case views != nil:
			slots.Gather(enc, views, srcs)
		case gatherer != nil:
			if err := gatherer.GatherBlocks(enc, bs, srcs); err != nil {
				return fmt.Errorf("gather blocks: %w", err)
			}
		default:
			for j, s := range srcs {
				if err := readFullAt(r, enc[j*bs:(j+1)*bs], sc.layout.StoredBlockOffset(int64(s))); err != nil {
					return fmt.Errorf("gather block %d: %w", s, err)
				}
			}
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

// verifyPass checks every segment tag, reading the encoded file in
// sequential slabs, and returns the per-segment suspect map.
func (sc *streamCoder) verifyPass(r io.ReaderAt, img []byte) ([]bool, error) {
	segSize := int64(sc.layout.SegmentSize())
	segBytes := sc.layout.SegmentPayloadBytes()
	slabSegs := int64(streamGroupBytes) / segSize
	if slabSegs < 1 {
		slabSegs = 1
	}
	suspect := make([]bool, sc.layout.Segments)
	err := parallel.ForRange(sc.workers, int(sc.layout.Segments), func(lo, hi int) error {
		var buf []byte
		if img == nil {
			buf = make([]byte, slabSegs*segSize)
		}
		for s0 := int64(lo); s0 < int64(hi); s0 += slabSegs {
			cnt := slabSegs
			if left := int64(hi) - s0; cnt > left {
				cnt = left
			}
			var slab []byte
			if img != nil {
				slab = img[s0*segSize : (s0+cnt)*segSize]
			} else {
				slab = buf[:cnt*segSize]
				if err := readFullAt(r, slab, s0*segSize); err != nil {
					return fmt.Errorf("verify pass read at segment %d: %w", s0, err)
				}
			}
			sc.tagger.VerifySlab(slab, segBytes, uint64(s0), sc.fileID, suspect[s0:s0+cnt])
		}
		return nil
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
