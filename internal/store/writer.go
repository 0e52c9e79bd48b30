package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/blockfile"
)

// Options tunes a store encode. The zero value picks sensible defaults.
type Options struct {
	// ShardTargetBytes is the desired shard size; the writer aligns it to
	// a whole number of segments. 0 picks an adaptive default:
	// encoded/16 clamped to [1 MiB, 64 MiB], so small files stay
	// many-sharded enough to exercise the placer while huge files never
	// need more than a 64 MiB materialisation buffer.
	ShardTargetBytes int64
	// WindowBytes bounds the placer's total in-memory staging across all
	// shards (default 2 MiB). Bigger windows mean fewer, longer staging
	// flushes; the memory bound is what keeps the whole encode at
	// O(window + shard) resident regardless of file size.
	WindowBytes int
	// Sync, when true, fsyncs every shard file at Commit before the
	// manifest rename, making the committed store power-loss durable.
	// Off by default: tests and benchmarks want page-cache speed, and
	// the manifest itself is always synced.
	Sync bool
}

const (
	defaultWindowBytes = 2 << 20
	minShardBytes      = 1 << 20
	maxShardBytes      = 64 << 20
	// hardMaxShardBytes bounds any caller-supplied ShardTargetBytes:
	// staging records address within a shard through a uint32, so a
	// shard may never reach 4 GiB (2 GiB keeps ample margin and bounds
	// the materialisation buffer too).
	hardMaxShardBytes = 1 << 31
	// minReplayBytes is the smallest staging window the flush keeps as
	// its replay and checksum buffer; below it the reads would be too
	// short, and a compactChunkBytes buffer is allocated instead.
	minReplayBytes = 64 << 10
	// compactChunkBytes sizes the sequential read buffer of Verify, and
	// of the staging-log replay and Commit when no window serves.
	compactChunkBytes = 1 << 20
)

// shardSizeFor picks the adaptive shard size for an encoded length.
func shardSizeFor(layout blockfile.Layout, target int64) int64 {
	if target <= 0 {
		target = layout.EncodedBytes / 16
		if target < minShardBytes {
			target = minShardBytes
		}
		if target > maxShardBytes {
			target = maxShardBytes
		}
	}
	return layout.AlignToSegments(target)
}

// stage is one shard's in-memory staging window: fixed-size placement
// records (4-byte shard-relative destination offset + block bytes) in
// arrival order, which is also the order they are spilled and replayed
// in — every record carries its destination, so no order matters.
type stage struct {
	mu  sync.Mutex
	buf []byte // n complete records
	n   int
}

// Writer materialises one encoded file into a store directory. It is the
// por.StreamTarget of a streaming encode, plus the block-placement fast
// path the POR scatter stage uses:
//
//  1. PlaceBlocks calls (concurrent) stage permuted blocks per shard and
//     spill full windows to per-shard staging logs as large sequential
//     appends — never a 16-byte random write;
//  2. FlushPlacements drains the windows and replays each log into its
//     shard image in memory, hands the complete image to the encoder's
//     finisher (which stamps the segment tags in place) and writes the
//     finished shard with one sequential WriteAt — every encoded byte
//     reaches its shard file once, and none is read back;
//  3. Commit checksums the shards and publishes the manifest by atomic
//     rename.
//
// WriteAt and ReadAt address the shard files directly, for callers that
// patch or inspect a materialised store.
//
// If the process dies anywhere before Commit, the directory holds an
// uncommitted manifest and Open reports ErrIncomplete.
type Writer struct {
	dir    string
	man    Manifest
	layout blockfile.Layout
	opts   Options

	shards []*os.File
	logs   []*os.File
	logOff []int64
	stages []stage

	recBytes  int // 4 + blockSize
	stageCap  int // records per shard window
	placeTmps sync.Pool
	placed    atomic.Int64
	flushed   bool
	scratch   []byte // whole records; the replay buffer, then Commit's read buffer
	flushErr  error
	done      bool
}

// Create initialises a store directory for one encoded file and returns
// the Writer to stream the encode into. An existing store (committed or
// not) in dir is superseded: the new manifest is written uncommitted with
// a bumped epoch, so a crash mid-encode is detected at the next Open.
func Create(dir, fileID string, layout blockfile.Layout, opts Options) (*Writer, error) {
	if fileID == "" {
		return nil, errors.New("store: empty file id")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create dir: %w", err)
	}
	epoch := uint64(1)
	if prev, err := loadManifest(dir); err == nil {
		epoch = prev.Epoch + 1
	}
	shardBytes := shardSizeFor(layout, opts.ShardTargetBytes)
	if shardBytes > hardMaxShardBytes {
		return nil, fmt.Errorf("store: shard size %d exceeds the %d-byte limit (staging records address shards through a uint32)", shardBytes, int64(hardMaxShardBytes))
	}
	man := Manifest{
		Version:      manifestVersion,
		Epoch:        epoch,
		FileID:       fileID,
		OrigBytes:    layout.OrigBytes,
		Params:       layout.Params,
		ShardBytes:   shardBytes,
		EncodedBytes: layout.EncodedBytes,
		Shards:       make([]ShardInfo, shardCount(layout.EncodedBytes, shardBytes)),
	}
	for s := range man.Shards {
		man.Shards[s].Bytes = shardLen(s, man.EncodedBytes, shardBytes)
	}
	// Publish the uncommitted manifest first: from here until Commit the
	// directory self-identifies as a partial encode.
	if err := writeManifest(dir, man); err != nil {
		return nil, err
	}
	// A superseded store may have had more shards (bigger file, smaller
	// shard size); sweep any shard/log files beyond the new geometry so
	// the directory never carries verified-looking dead data.
	if err := removeStaleShardFiles(dir, len(man.Shards)); err != nil {
		return nil, err
	}

	w := &Writer{
		dir:      dir,
		man:      man,
		layout:   layout,
		opts:     opts,
		shards:   make([]*os.File, len(man.Shards)),
		logs:     make([]*os.File, len(man.Shards)),
		logOff:   make([]int64, len(man.Shards)),
		stages:   make([]stage, len(man.Shards)),
		recBytes: 4 + layout.BlockSize,
	}
	window := opts.WindowBytes
	if window <= 0 {
		window = defaultWindowBytes
	}
	w.stageCap = window / len(man.Shards) / w.recBytes
	if w.stageCap < 16 {
		w.stageCap = 16
	}
	w.placeTmps.New = func() any { return &placeScratch{} }
	for s := range man.Shards {
		f, err := os.OpenFile(w.shardPath(s), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			w.Close()
			return nil, fmt.Errorf("store: create shard %d: %w", s, err)
		}
		w.shards[s] = f
		if err := f.Truncate(man.Shards[s].Bytes); err != nil {
			w.Close()
			return nil, fmt.Errorf("store: size shard %d: %w", s, err)
		}
		lf, err := os.OpenFile(w.logPath(s), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			w.Close()
			return nil, fmt.Errorf("store: create staging log %d: %w", s, err)
		}
		w.logs[s] = lf
	}
	return w, nil
}

func (w *Writer) shardPath(s int) string { return filepath.Join(w.dir, fmt.Sprintf(shardPattern, s)) }
func (w *Writer) logPath(s int) string   { return filepath.Join(w.dir, fmt.Sprintf(logPattern, s)) }

// removeStaleShardFiles deletes shard and staging-log files whose index
// is outside the new geometry — leftovers of a previous, larger store in
// the same directory.
func removeStaleShardFiles(dir string, keep int) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("store: scan dir: %w", err)
	}
	for _, e := range entries {
		var idx int
		for _, pat := range []string{shardPattern, logPattern} {
			if n, err := fmt.Sscanf(e.Name(), pat, &idx); err == nil && n == 1 && idx >= keep {
				if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
					return fmt.Errorf("store: remove stale %s: %w", e.Name(), err)
				}
				break
			}
		}
	}
	return nil
}

// Manifest returns the (still uncommitted) manifest being built.
func (w *Writer) Manifest() Manifest { return w.man }

// placeScratch is the pooled workspace of one PlaceBlocks call: the
// per-block shard id, the counting-sort cursors, and the shard-grouped
// block order.
type placeScratch struct {
	shard  []int32
	counts []int32
	order  []int32
}

// PlaceBlocks stages len(offs) blocks of blockSize bytes from buf at
// their destination byte offsets. Destinations may be arbitrarily
// scattered (they are a pseudorandom permutation); the placer buckets
// them per shard and turns them into sequential staging-log appends.
// Safe for concurrent use by the encode pipeline's workers.
//
// The batch is pre-bucketed by shard with a counting sort, so each
// touched shard's lock is taken once for a bulk append of all its
// records — under a concurrent encode pipeline that is one lock round
// trip per (shard, batch) instead of one per 16-byte block.
func (w *Writer) PlaceBlocks(buf []byte, blockSize int, offs []int64) error {
	if w.flushed {
		return errors.New("store: PlaceBlocks after FlushPlacements")
	}
	if blockSize != w.layout.BlockSize {
		return fmt.Errorf("store: placing %d-byte blocks into a %d-byte-block layout", blockSize, w.layout.BlockSize)
	}
	if len(buf) != len(offs)*blockSize {
		return fmt.Errorf("store: %d bytes for %d placements", len(buf), len(offs))
	}
	if len(offs) == 0 {
		return nil
	}
	nshards := len(w.stages)
	ps := w.placeTmps.Get().(*placeScratch)
	defer w.placeTmps.Put(ps)
	if cap(ps.shard) < len(offs) {
		ps.shard = make([]int32, len(offs))
		ps.order = make([]int32, len(offs))
	}
	if cap(ps.counts) < nshards+1 {
		ps.counts = make([]int32, nshards+1)
	}
	shard, order := ps.shard[:len(offs)], ps.order[:len(offs)]
	counts := ps.counts[:nshards+1]
	for i := range counts {
		counts[i] = 0
	}
	// Validate every destination before touching any stage, then count.
	// Shards stay below 4 GiB (hardMaxShardBytes), so an offset below
	// 4 GiB finds its shard with a 32-bit divide — a fraction of the
	// 64-bit one's cost, paid once per 16-byte block.
	shardBytes32 := uint32(w.man.ShardBytes)
	for j, off := range offs {
		if off < 0 || off+int64(blockSize) > w.man.EncodedBytes {
			return fmt.Errorf("store: placement [%d, %d) outside encoded size %d", off, off+int64(blockSize), w.man.EncodedBytes)
		}
		var s int32
		if off < 1<<32 {
			s = int32(uint32(off) / shardBytes32)
		} else {
			s = int32(off / w.man.ShardBytes)
		}
		shard[j] = s
		counts[s+1]++
	}
	for s := 1; s < len(counts); s++ {
		counts[s] += counts[s-1]
	}
	for j := range offs {
		s := shard[j]
		order[counts[s]] = int32(j)
		counts[s]++
	}
	// After the scatter counts[s] is the end of shard s's run in order.
	start := int32(0)
	for s := 0; s < nshards; s++ {
		end := counts[s]
		if end == start {
			continue
		}
		base := int64(s) * w.man.ShardBytes
		st := &w.stages[s]
		st.mu.Lock()
		if st.buf == nil {
			st.buf = make([]byte, 0, w.stageCap*w.recBytes)
		}
		var err error
		for _, oj := range order[start:end] {
			j := int(oj)
			var hdr [4]byte
			binary.LittleEndian.PutUint32(hdr[:], uint32(offs[j]-base))
			st.buf = append(st.buf, hdr[:]...)
			st.buf = append(st.buf, buf[j*blockSize:(j+1)*blockSize]...)
			st.n++
			if st.n >= w.stageCap {
				if err = w.spillLocked(s, st); err != nil {
					break
				}
			}
		}
		st.mu.Unlock()
		if err != nil {
			return err
		}
		start = end
	}
	w.placed.Add(int64(len(offs)))
	metricStorePlacedBlocks.Add(uint64(len(offs)))
	return nil
}

// spillLocked appends the shard's staged records to its staging log as
// one sequential write. Caller holds st.mu.
func (w *Writer) spillLocked(s int, st *stage) error {
	if st.n == 0 {
		return nil
	}
	_, err := w.logs[s].WriteAt(st.buf, w.logOff[s])
	w.logOff[s] += int64(len(st.buf))
	metricStoreSpillBytes.Add(uint64(len(st.buf)))
	if err != nil {
		return fmt.Errorf("store: spill staging log %d: %w", s, err)
	}
	st.buf = st.buf[:0]
	st.n = 0
	return nil
}

// FlushPlacements drains every staging window and materialises each shard
// from its log: the log is replayed into a zeroed shard-sized buffer,
// finish (when not nil) is called on the complete image — every placed
// block at its destination, tag bytes still zero, at byte offset off of
// the encoded file; shards are segment-aligned, so both ends are segment
// boundaries — and the finished shard is written with a single sequential
// WriteAt. Shards are finished in ascending order, one call each; this is
// where the streaming encoder stamps the segment tags. Afterwards the
// staging logs are deleted. The flush verifies that exactly one block
// landed on every block position of the layout: the global count must
// equal TotalBlocks, each destination must be a real block slot (not a
// tag byte), and a per-shard bitmap rejects duplicates — so count +
// distinctness together pin the full bijection, and a
// duplicate-plus-missing pair cannot silently commit a zero-filled block.
// The first call decides: its error, finish's included, is what every
// later call returns, and neither replay nor finish runs again.
func (w *Writer) FlushPlacements(finish func(img []byte, off int64) error) error {
	if w.flushed {
		// A failed flush stays failed: Commit must never see a nil here
		// and publish checksums over unmaterialised shards.
		return w.flushErr
	}
	w.flushed = true
	w.flushErr = w.flushPlacements(finish)
	return w.flushErr
}

func (w *Writer) flushPlacements(finish func(img []byte, off int64) error) error {
	if got, want := w.placed.Load(), w.layout.TotalBlocks; got != want {
		return fmt.Errorf("store: %d blocks placed, layout has %d", got, want)
	}
	// Drain and drop every staging window (but the one kept as the replay
	// buffer) before the shard image is allocated: the two together would
	// be the encode's largest live set, held for a moment only — a peak
	// the collector's pacing meets on some runs and misses on others.
	for s := range w.stages {
		st := &w.stages[s]
		st.mu.Lock()
		err := w.spillLocked(s, st)
		if w.scratch == nil && cap(st.buf) >= minReplayBytes {
			w.scratch = st.buf[:cap(st.buf)]
		}
		st.buf = nil
		st.mu.Unlock()
		if err != nil {
			return err
		}
	}
	shardBuf := make([]byte, w.man.ShardBytes)
	// Replay in whole records through one of the drained windows — memory
	// the encode already holds, so the image is the flush's only large
	// allocation. Without a window big enough, at least one record per
	// read: giant block sizes (record > compactChunkBytes) must degrade to
	// one-record reads, not to a zero-length buffer that would never
	// advance the replay.
	if w.scratch == nil {
		recsPerRead := compactChunkBytes / w.recBytes
		if recsPerRead < 1 {
			recsPerRead = 1
		}
		w.scratch = make([]byte, recsPerRead*w.recBytes)
	}
	readBuf := w.scratch
	bs := w.layout.BlockSize
	// Block positions inside a shard enumerate injectively as
	// (segment, block-in-segment); shard sizes are segment multiples, so
	// the bitmap covers every slot of the largest shard.
	segSize := int64(w.layout.SegmentSize())
	v := int64(w.layout.SegmentBlocks)
	seen := make([]uint64, (w.man.ShardBytes/segSize*v+63)/64)
	for s := range w.shards {
		size := w.man.Shards[s].Bytes
		img := shardBuf[:size]
		clear(img)
		clear(seen)
		for off := int64(0); off < w.logOff[s]; {
			n := int64(len(readBuf))
			if left := w.logOff[s] - off; n > left {
				n = left
			}
			if _, err := io.ReadFull(io.NewSectionReader(w.logs[s], off, n), readBuf[:n]); err != nil {
				return fmt.Errorf("store: replay staging log %d: %w", s, err)
			}
			for r := 0; r < int(n); r += w.recBytes {
				rel := int64(binary.LittleEndian.Uint32(readBuf[r:]))
				if rel+int64(bs) > size {
					return fmt.Errorf("%w: staged placement at %d outside shard %d (%d bytes)", ErrCorrupt, rel, s, size)
				}
				if inSeg := rel % segSize; inSeg%int64(bs) != 0 || inSeg/int64(bs) >= v {
					return fmt.Errorf("%w: staged placement at %d in shard %d is not a block slot", ErrCorrupt, rel, s)
				}
				idx := rel/segSize*v + rel%segSize/int64(bs)
				if seen[idx/64]&(1<<(idx%64)) != 0 {
					return fmt.Errorf("%w: block slot at %d in shard %d placed twice", ErrCorrupt, rel, s)
				}
				seen[idx/64] |= 1 << (idx % 64)
				copy(img[rel:rel+int64(bs)], readBuf[r+4:r+w.recBytes])
			}
			off += n
		}
		if finish != nil {
			if err := finish(img, int64(s)*w.man.ShardBytes); err != nil {
				return fmt.Errorf("store: finish shard %d: %w", s, err)
			}
		}
		if size > 0 {
			if _, err := w.shards[s].WriteAt(img, 0); err != nil {
				return fmt.Errorf("store: materialise shard %d: %w", s, err)
			}
		}
		w.logs[s].Close()
		w.logs[s] = nil
		if err := os.Remove(w.logPath(s)); err != nil {
			return fmt.Errorf("store: remove staging log %d: %w", s, err)
		}
	}
	return nil
}

// forShards walks the shard spans covering [off, off+n) and calls fn with
// (shard, shard-relative offset, slice of p covering the span).
func forShards(man Manifest, p []byte, off int64, fn func(s int, rel int64, part []byte) error) error {
	for len(p) > 0 {
		s := int(off / man.ShardBytes)
		rel := off - int64(s)*man.ShardBytes
		n := man.Shards[s].Bytes - rel
		if n > int64(len(p)) {
			n = int64(len(p))
		}
		if err := fn(s, rel, p[:n]); err != nil {
			return err
		}
		p = p[n:]
		off += n
	}
	return nil
}

// WriteAt writes into the shard files at an absolute encoded-file offset,
// spanning shard boundaries as needed. Bytes written before
// FlushPlacements are superseded by the materialisation pass.
func (w *Writer) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 || off+int64(len(p)) > w.man.EncodedBytes {
		return 0, fmt.Errorf("store: write [%d, %d) outside encoded size %d", off, off+int64(len(p)), w.man.EncodedBytes)
	}
	err := forShards(w.man, p, off, func(s int, rel int64, part []byte) error {
		_, werr := w.shards[s].WriteAt(part, rel)
		return werr
	})
	if err != nil {
		return 0, err
	}
	return len(p), nil
}

// ReadAt reads from the shard files at an absolute encoded-file offset.
// Only meaningful after FlushPlacements (before that, placed blocks still
// live in the staging logs).
func (w *Writer) ReadAt(p []byte, off int64) (int, error) {
	return readShards(w.man, w.shards, nil, p, off)
}

// Commit checksums every shard, optionally fsyncs them, and publishes the
// completed manifest by atomic rename. After Commit the directory opens
// as a consistent Store.
func (w *Writer) Commit() (Manifest, error) {
	if w.done {
		return Manifest{}, errors.New("store: already committed")
	}
	if err := w.FlushPlacements(nil); err != nil {
		return Manifest{}, err
	}
	for s, f := range w.shards {
		crc := crc32.New(castagnoli)
		if _, err := io.CopyBuffer(crc, io.NewSectionReader(f, 0, w.man.Shards[s].Bytes), w.scratch); err != nil {
			return Manifest{}, fmt.Errorf("store: checksum shard %d: %w", s, err)
		}
		w.man.Shards[s].CRC32C = crc.Sum32()
		if w.opts.Sync {
			if err := f.Sync(); err != nil {
				return Manifest{}, fmt.Errorf("store: sync shard %d: %w", s, err)
			}
		}
	}
	w.man.Complete = true
	w.man.Epoch++
	if err := writeManifest(w.dir, w.man); err != nil {
		return Manifest{}, err
	}
	w.done, w.scratch = true, nil
	return w.man, nil
}

// Close releases the writer's file handles. Without a prior Commit the
// directory is left in its uncommitted (crash-equivalent) state.
func (w *Writer) Close() error {
	var first error
	for _, fs := range [][]*os.File{w.shards, w.logs} {
		for i, f := range fs {
			if f != nil {
				if err := f.Close(); err != nil && first == nil {
					first = err
				}
				fs[i] = nil
			}
		}
	}
	return first
}

// castagnoli is the CRC-32C table shared by Commit and Verify.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)
