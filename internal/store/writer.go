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
	// hardMaxShardBytes bounds any caller-supplied ShardTargetBytes and
	// any manifest Open accepts: staging records address within a shard
	// through a uint32 slot, and the replay and the gather place blocks
	// with 32-bit arithmetic, so a shard may never reach 4 GiB (2 GiB
	// keeps ample margin and bounds the materialisation buffer too).
	hardMaxShardBytes = 1 << 31
	// minReplayBytes is the smallest staging window the flush keeps as
	// its replay buffer; below it the reads would be too short, and a
	// compactChunkBytes buffer is allocated instead.
	minReplayBytes = 64 << 10
	// compactChunkBytes sizes the sequential read buffer of Commit's
	// re-checksum (and of Verify where shards are not mapped), and of the
	// staging-log replay when no window serves.
	compactChunkBytes = 1 << 20
)

// slotGeom addresses a block slot — block b of the permuted file F‴, at
// blockfile.Layout.StoredBlockOffset(b) — inside its shard with 32-bit
// arithmetic. A shard holds fewer than 2³² bytes (hardMaxShardBytes, which
// Create and Manifest.Validate both enforce), so a shard-relative slot and
// its byte offset fit a uint32.
type slotGeom struct {
	perShard uint32 // block slots in a full shard
	v        uint32 // blocks per segment
	segSize  uint32 // segment bytes, tag included
	bs       uint32 // block bytes
}

func newSlotGeom(layout blockfile.Layout, shardBytes int64) slotGeom {
	segSize := int64(layout.SegmentSize())
	return slotGeom{
		perShard: uint32(shardBytes / segSize * int64(layout.SegmentBlocks)),
		v:        uint32(layout.SegmentBlocks),
		segSize:  uint32(segSize),
		bs:       uint32(layout.BlockSize),
	}
}

// shard splits slot b into its shard and shard-relative slot: one 32-bit
// divide below 2³², a 64-bit one above.
func (g slotGeom) shard(b uint64) (s, rel uint32) {
	if b < 1<<32 {
		s = uint32(b) / g.perShard
		return s, uint32(b) - s*g.perShard
	}
	s64 := b / uint64(g.perShard)
	return uint32(s64), uint32(b - s64*uint64(g.perShard))
}

// offset is the byte offset of shard-relative slot rel in its shard:
// segment rel/v, block rel%v of it.
func (g slotGeom) offset(rel uint32) uint32 {
	seg := rel / g.v
	return seg*g.segSize + (rel-seg*g.v)*g.bs
}

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

// Writer materialises one encoded file into a store directory. It is the
// por.StreamTarget of a streaming encode, plus the block-placement fast
// path the POR scatter stage uses:
//
//  1. PlaceBlocks calls (concurrent) append placement records — the
//     block's 4-byte shard-relative slot, then its bytes — to per-shard
//     staging windows under the Writer's one lock, and spill full windows
//     to per-shard staging logs as large sequential appends — never a
//     16-byte random write;
//  2. FlushPlacements drains the windows and replays each log into its
//     shard image in memory — checking every record's slot against the
//     shard and against a duplicate bitmap, and addressing it with 32-bit
//     arithmetic — hands the complete image to the encoder's finisher
//     (which stamps the segment tags in place), takes the image's CRC-32C
//     and writes the finished shard with one sequential WriteAt — every
//     encoded byte reaches its shard file once, and none is read back;
//  3. Commit fsyncs the shards (under Options.Sync) and publishes the
//     manifest by atomic rename.
//
// WriteAt and ReadAt address the shard files directly, for callers that
// patch or inspect a materialised store; Commit re-checksums a shard
// WriteAt touched after its materialisation.
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

	// mu guards the staging windows, the log lengths and the placed count:
	// staging a chunk group's blocks is a short copy loop, so one lock per
	// PlaceBlocks call is all the exclusion the placer needs.
	mu     sync.Mutex
	stages [][]byte // per shard: whole records in arrival order — each carries its slot, so order does not matter
	logOff []int64
	placed int64

	geom     slotGeom
	recBytes int // 4 + blockSize
	stageCap int // records per shard window
	flushed  bool
	flushErr error
	dirty    []bool // shards written through WriteAt after materialisation
	done     bool
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
		stages:   make([][]byte, len(man.Shards)),
		logOff:   make([]int64, len(man.Shards)),
		geom:     newSlotGeom(layout, shardBytes),
		recBytes: 4 + layout.BlockSize,
		dirty:    make([]bool, len(man.Shards)),
	}
	window := opts.WindowBytes
	if window <= 0 {
		window = defaultWindowBytes
	}
	w.stageCap = window / len(man.Shards) / w.recBytes
	if w.stageCap < 16 {
		w.stageCap = 16
	}
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

// PlaceBlocks stages len(slots) blocks of blockSize bytes from buf at
// their block slots: slot b is block b of the permuted file F‴, stored at
// blockfile.Layout.StoredBlockOffset(b). Slots may be arbitrarily
// scattered (they are a pseudorandom permutation); the placer files each
// under its shard and turns them into sequential staging-log appends.
// Every slot is checked against the layout before anything is staged.
// Safe for concurrent use by the encode pipeline's workers.
func (w *Writer) PlaceBlocks(buf []byte, blockSize int, slots []uint64) error {
	if w.flushed {
		return errors.New("store: PlaceBlocks after FlushPlacements")
	}
	if blockSize != w.layout.BlockSize {
		return fmt.Errorf("store: placing %d-byte blocks into a %d-byte-block layout", blockSize, w.layout.BlockSize)
	}
	if len(buf) != len(slots)*blockSize {
		return fmt.Errorf("store: %d bytes for %d placements", len(buf), len(slots))
	}
	total := uint64(w.layout.TotalBlocks)
	for _, b := range slots {
		if b >= total {
			return fmt.Errorf("store: block slot %d outside the layout's %d", b, total)
		}
	}
	geom := w.geom
	w.mu.Lock()
	defer w.mu.Unlock()
	for j, b := range slots {
		s, rel := geom.shard(b)
		st := w.stages[s]
		if st == nil {
			st = make([]byte, 0, w.stageCap*w.recBytes)
		}
		st = binary.LittleEndian.AppendUint32(st, rel)
		st = append(st, buf[j*blockSize:(j+1)*blockSize]...)
		w.stages[s] = st
		if len(st) >= w.stageCap*w.recBytes {
			if err := w.spillLocked(int(s)); err != nil {
				return err
			}
		}
	}
	w.placed += int64(len(slots))
	metricStorePlacedBlocks.Add(uint64(len(slots)))
	return nil
}

// spillLocked appends shard s's staged records to its staging log as one
// sequential write. Caller holds w.mu.
func (w *Writer) spillLocked(s int) error {
	st := w.stages[s]
	if len(st) == 0 {
		return nil
	}
	_, err := w.logs[s].WriteAt(st, w.logOff[s])
	w.logOff[s] += int64(len(st))
	metricStoreSpillBytes.Add(uint64(len(st)))
	if err != nil {
		return fmt.Errorf("store: spill staging log %d: %w", s, err)
	}
	w.stages[s] = st[:0]
	return nil
}

// FlushPlacements drains every staging window and materialises each shard
// from its log: the log is replayed into a zeroed shard-sized buffer,
// finish (when not nil) is called on the complete image — every placed
// block at its destination, tag bytes still zero, at byte offset off of
// the encoded file; shards are segment-aligned, so both ends are segment
// boundaries — and the finished shard is checksummed and written with a
// single sequential WriteAt. Shards are finished in ascending order, one
// call each; this is where the streaming encoder stamps the segment tags.
// Afterwards the staging logs are deleted. The flush verifies that exactly
// one block landed on every block slot of the layout: the global count
// must equal TotalBlocks, each record's slot must lie inside its shard (a
// slot names a block, never a tag byte, by construction), and a per-shard
// bitmap rejects duplicates — so count + distinctness together pin the
// full bijection, and a duplicate-plus-missing pair cannot silently commit
// a zero-filled block. The first call decides: its error, finish's
// included, is what every later call returns, and neither replay nor
// finish runs again.
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
	// Drain and drop every staging window (but the one kept as the replay
	// buffer) before the shard image is allocated: the two together would
	// be the encode's largest live set, held for a moment only — a peak
	// the collector's pacing meets on some runs and misses on others.
	var readBuf []byte
	w.mu.Lock()
	placed := w.placed
	var err error
	for s, st := range w.stages {
		if err == nil {
			err = w.spillLocked(s)
		}
		if readBuf == nil && cap(st) >= minReplayBytes {
			readBuf = st[:cap(st)]
		}
		w.stages[s] = nil
	}
	w.mu.Unlock()
	if err != nil {
		return err
	}
	if want := w.layout.TotalBlocks; placed != want {
		return fmt.Errorf("store: %d blocks placed, layout has %d", placed, want)
	}
	shardBuf := make([]byte, w.man.ShardBytes)
	// Replay in whole records through one of the drained windows — memory
	// the encode already holds, so the image is the flush's only large
	// allocation. Without a window big enough, at least one record per
	// read: giant block sizes (record > compactChunkBytes) must degrade to
	// one-record reads, not to a zero-length buffer that would never
	// advance the replay.
	if readBuf == nil {
		recsPerRead := compactChunkBytes / w.recBytes
		if recsPerRead < 1 {
			recsPerRead = 1
		}
		readBuf = make([]byte, recsPerRead*w.recBytes)
	}
	// A slot's byte offset in its shard is 32-bit arithmetic (slotGeom):
	// one 32-bit divide per record, where byte-offset records paid five
	// 64-bit divides and mods. Shard sizes are segment multiples, so the
	// bitmap covers every slot of the largest shard.
	geom := w.geom
	bs := geom.bs
	seen := make([]uint64, (geom.perShard+63)/64)
	for s := range w.shards {
		size := w.man.Shards[s].Bytes
		slots := uint32(size) / geom.segSize * geom.v
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
				slot := binary.LittleEndian.Uint32(readBuf[r:])
				if slot >= slots {
					return fmt.Errorf("%w: staged block slot %d outside shard %d (%d slots)", ErrCorrupt, slot, s, slots)
				}
				if seen[slot/64]&(1<<(slot%64)) != 0 {
					return fmt.Errorf("%w: block slot %d in shard %d placed twice", ErrCorrupt, slot, s)
				}
				seen[slot/64] |= 1 << (slot % 64)
				at := geom.offset(slot)
				copy(img[at:at+bs], readBuf[r+4:r+w.recBytes])
			}
			off += n
		}
		if finish != nil {
			if err := finish(img, int64(s)*w.man.ShardBytes); err != nil {
				return fmt.Errorf("store: finish shard %d: %w", s, err)
			}
		}
		w.man.Shards[s].CRC32C = crc32.Checksum(img, castagnoli)
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
// FlushPlacements are superseded by the materialisation pass; a shard
// written after it is checksummed afresh at Commit.
func (w *Writer) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 || off+int64(len(p)) > w.man.EncodedBytes {
		return 0, fmt.Errorf("store: write [%d, %d) outside encoded size %d", off, off+int64(len(p)), w.man.EncodedBytes)
	}
	err := forShards(w.man, p, off, func(s int, rel int64, part []byte) error {
		w.dirty[s] = w.dirty[s] || w.flushed
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

// Commit flushes the placements if that has not happened yet, re-checksums
// any shard WriteAt touched since, optionally fsyncs the shards, and
// publishes the completed manifest by atomic rename. After Commit the
// directory opens as a consistent Store.
func (w *Writer) Commit() (Manifest, error) {
	if w.done {
		return Manifest{}, errors.New("store: already committed")
	}
	if err := w.FlushPlacements(nil); err != nil {
		return Manifest{}, err
	}
	var buf []byte
	for s, f := range w.shards {
		if w.dirty[s] {
			if buf == nil {
				buf = make([]byte, compactChunkBytes)
			}
			crc, err := shardCRC(f, w.man.Shards[s].Bytes, buf)
			if err != nil {
				return Manifest{}, fmt.Errorf("store: checksum shard %d: %w", s, err)
			}
			w.man.Shards[s].CRC32C = crc
		}
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
	w.done = true
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
