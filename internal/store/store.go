package store

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/blockfile"
	"repro/internal/parallel"
	"repro/internal/telemetry"
)

// Observability. Read path: one pread per shard touched, byte volume,
// checksum mismatches caught by Verify, and the blocks and bytes the
// extractor's mapped gather copied without a pread. Write path: the
// blocks the placer accepted and the staging-log bytes it spilled.
var (
	metricStorePreads = telemetry.Default.Counter(
		"geoproof_store_preads_total",
		"Positioned shard reads issued by the serving path.")
	metricStorePreadBytes = telemetry.Default.Counter(
		"geoproof_store_pread_bytes_total",
		"Bytes returned by positioned shard reads.")
	metricStoreChecksumFailures = telemetry.Default.Counter(
		"geoproof_store_checksum_failures_total",
		"Shard CRC-32C mismatches found by Verify.")
	metricStoreGatherBlocks = telemetry.Default.Counter(
		"geoproof_store_gather_blocks_total",
		"Blocks copied out of mapped shards by GatherBlocks.")
	metricStoreGatherBytes = telemetry.Default.Counter(
		"geoproof_store_gather_bytes_total",
		"Bytes copied out of mapped shards by GatherBlocks.")
	metricStorePlacedBlocks = telemetry.Default.Counter(
		"geoproof_store_placed_blocks_total",
		"Blocks staged by the write path's PlaceBlocks.")
	metricStoreSpillBytes = telemetry.Default.Counter(
		"geoproof_store_spill_bytes_total",
		"Placement-record bytes appended to the staging logs.")
)

// Store is a committed store directory opened for serving: the prover's
// persistent backend. Reads are positioned (pread) against per-shard file
// handles under per-shard read locks, so any number of audit reads
// proceed concurrently; the only writers are corruption injection
// (experiments) which take the shard's write lock. On unix the extractor's
// block gather (GatherBlocks) and Verify read read-only shard mappings
// under every shard's read lock instead of issuing preads.
type Store struct {
	dir      string
	man      Manifest
	layout   blockfile.Layout
	geom     slotGeom
	shards   []*os.File
	locks    []sync.RWMutex
	readonly bool

	// Shard mappings behind GatherBlocks and Verify: made by the first
	// call, released (through unmap) by Close, which holds every write
	// lock.
	mapOnce sync.Once
	mapErr  error
	maps    [][]byte
	unmap   func() error
	closed  bool
}

// Open loads the manifest and opens every shard of a committed store. A
// directory whose encode never committed returns ErrIncomplete; missing
// or inconsistent files return ErrNoManifest/ErrCorrupt. Checksums are
// not read here — call Verify for a full content scan.
func Open(dir string) (*Store, error) {
	man, err := loadManifest(dir)
	if err != nil {
		return nil, err
	}
	if !man.Complete {
		return nil, fmt.Errorf("%w: %s holds a partial encode (epoch %d); re-run setup", ErrIncomplete, dir, man.Epoch)
	}
	layout, err := man.Layout()
	if err != nil {
		return nil, err
	}
	s := &Store{
		dir:    dir,
		man:    man,
		layout: layout,
		geom:   newSlotGeom(layout, man.ShardBytes),
		shards: make([]*os.File, len(man.Shards)),
		locks:  make([]sync.RWMutex, len(man.Shards)),
	}
	for i := range man.Shards {
		path := filepath.Join(dir, fmt.Sprintf(shardPattern, i))
		// Serving only needs reads; O_RDWR is preferred so the
		// fault-injection WriteAt seam works, but a store shipped on a
		// read-only mount must still serve.
		f, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			if f, err = os.Open(path); err == nil {
				s.readonly = true
			}
		}
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("%w: shard %d: %v", ErrCorrupt, i, err)
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			s.Close()
			return nil, fmt.Errorf("store: stat shard %d: %w", i, err)
		}
		if st.Size() != man.Shards[i].Bytes {
			f.Close()
			s.Close()
			return nil, fmt.Errorf("%w: shard %d is %d bytes on disk, manifest says %d", ErrCorrupt, i, st.Size(), man.Shards[i].Bytes)
		}
		s.shards[i] = f
	}
	return s, nil
}

// Manifest returns the committed manifest.
func (s *Store) Manifest() Manifest { return s.man }

// FileID returns the stored file's identifier.
func (s *Store) FileID() string { return s.man.FileID }

// Layout returns the encoded file's layout.
func (s *Store) Layout() blockfile.Layout { return s.layout }

// Size returns the encoded byte length, the disk.Backend size contract.
func (s *Store) Size() int64 { return s.man.EncodedBytes }

// checkShardCRC compares shard i's checksum with the committed one.
func (s *Store) checkShardCRC(i int, got uint32) error {
	if want := s.man.Shards[i].CRC32C; got != want {
		metricStoreChecksumFailures.Inc()
		return fmt.Errorf("%w: shard %d checksum %08x, manifest says %08x", ErrCorrupt, i, got, want)
	}
	return nil
}

// shardCRC streams the first n bytes of a shard file through CRC-32C,
// reading through buf.
func shardCRC(f *os.File, n int64, buf []byte) (uint32, error) {
	crc := crc32.New(castagnoli)
	if _, err := io.CopyBuffer(crc, io.NewSectionReader(f, 0, n), buf); err != nil {
		return 0, err
	}
	return crc.Sum32(), nil
}

// readShards is the shared positioned-read walk over shard files: locks
// may be nil (Writer) or per-shard (Store). Implements io.ReaderAt
// semantics: io.EOF only for a read that runs past the end of the encoded
// payload; a shard that ends short of the manifest's length inside the
// payload (cut after Open) is ErrCorrupt, never a run of zeros.
func readShards(man Manifest, shards []*os.File, locks []sync.RWMutex, p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("store: negative read offset %d", off)
	}
	if off >= man.EncodedBytes {
		return 0, io.EOF
	}
	want := len(p)
	if max := man.EncodedBytes - off; int64(want) > max {
		want = int(max)
	}
	err := forShards(man, p[:want], off, func(s int, rel int64, part []byte) error {
		if locks != nil {
			locks[s].RLock()
			defer locks[s].RUnlock()
		}
		n, rerr := shards[s].ReadAt(part, rel)
		if n == len(part) {
			metricStorePreads.Inc()
			metricStorePreadBytes.Add(uint64(len(part)))
			return nil
		}
		if rerr == io.EOF {
			return fmt.Errorf("%w: shard %d ends at byte %d, short of the manifest's %d", ErrCorrupt, s, rel+int64(n), man.Shards[s].Bytes)
		}
		return rerr
	})
	if err != nil {
		return 0, err
	}
	if want < len(p) {
		return want, io.EOF
	}
	return want, nil
}

// ReadAt implements io.ReaderAt over the whole encoded payload; it is
// what the disk backend and the POR extractor's sequential verify pass
// read through (its scattered block gather goes to GatherBlocks where the
// platform has it).
func (s *Store) ReadAt(p []byte, off int64) (int, error) {
	return readShards(s.man, s.shards, s.locks, p, off)
}

// WriteAt writes through to the shard files (spanning shards) under the
// per-shard write locks. It exists for fault-injection — corrupting a
// served store to demonstrate MAC rejections — and for future dynamic
// updates; it does NOT update the committed checksums, so Verify fails
// afterwards by design.
func (s *Store) WriteAt(p []byte, off int64) (int, error) {
	if s.readonly {
		return 0, errors.New("store: opened read-only (shard files are not writable)")
	}
	if off < 0 || off+int64(len(p)) > s.man.EncodedBytes {
		return 0, fmt.Errorf("store: write [%d, %d) outside encoded size %d", off, off+int64(len(p)), s.man.EncodedBytes)
	}
	err := forShards(s.man, p, off, func(sh int, rel int64, part []byte) error {
		s.locks[sh].Lock()
		defer s.locks[sh].Unlock()
		_, werr := s.shards[sh].WriteAt(part, rel)
		return werr
	})
	if err != nil {
		return 0, err
	}
	return len(p), nil
}

// ReadSegment returns segment i (payload followed by its embedded tag).
// Shards are segment-aligned, so this is one pread inside one shard.
func (s *Store) ReadSegment(i int64) ([]byte, error) {
	off, err := s.layout.SegmentOffset(i)
	if err != nil {
		return nil, err
	}
	seg := make([]byte, s.layout.SegmentSize())
	if _, err := readShards(s.man, s.shards, s.locks, seg, off); err != nil {
		return nil, err
	}
	return seg, nil
}

// ReadSegments fetches a batch of segments with up to workers concurrent
// preads (workers ≤ 0 selects NumCPU), in index order — the prover-side
// batch read seam, mirroring cloud.Site.ReadSegments.
func (s *Store) ReadSegments(indices []int64, workers int) ([][]byte, error) {
	segs := make([][]byte, len(indices))
	err := parallel.For(parallel.Resolve(workers), len(indices), func(j int) error {
		seg, rerr := s.ReadSegment(indices[j])
		if rerr != nil {
			return rerr
		}
		segs[j] = seg
		return nil
	})
	if err != nil {
		return nil, err
	}
	return segs, nil
}

// Close releases the shard mappings and handles. It takes every shard's
// write lock first, so it waits out reads, gathers and Verify in flight;
// one that arrives later gets an error, never an unmapped page.
func (s *Store) Close() error {
	for i := range s.locks {
		s.locks[i].Lock()
	}
	defer func() {
		for i := range s.locks {
			s.locks[i].Unlock()
		}
	}()
	s.closed = true
	var first error
	if s.unmap != nil {
		first = s.unmap()
		s.unmap = nil
	}
	for i, f := range s.shards {
		if f != nil {
			if err := f.Close(); err != nil && first == nil {
				first = err
			}
			s.shards[i] = nil
		}
	}
	return first
}
