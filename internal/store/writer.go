package store

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/blockfile"
)

// Options tunes a store encode. The zero value picks sensible defaults.
type Options struct {
	// ShardTargetBytes is the desired shard size; the writer aligns it to
	// a whole number of segments. 0 picks an adaptive default:
	// encoded/16 clamped to [1 MiB, 64 MiB], so small files still span
	// many shards while huge files never need more than a 64 MiB shard.
	ShardTargetBytes int64
	// Sync, when true, fsyncs every shard file at Commit before the
	// manifest rename, making the committed store power-loss durable.
	// Off by default: tests and benchmarks want page-cache speed, and
	// the manifest itself is always synced.
	Sync bool
}

const (
	minShardBytes = 1 << 20
	maxShardBytes = 64 << 20
	// hardMaxShardBytes bounds any caller-supplied ShardTargetBytes and
	// any manifest Open accepts: a shard is one blockfile.SlotGeom view.
	hardMaxShardBytes = blockfile.MaxViewBytes
	// compactChunkBytes sizes the sequential read buffer of the checksums
	// taken where shards are not mapped (Commit's and Verify's).
	compactChunkBytes = 1 << 20
)

// shardSizeFor picks the adaptive shard size for an encoded length.
func shardSizeFor(layout blockfile.Layout, target int64) int64 {
	if target <= 0 {
		target = min(max(layout.EncodedBytes/16, minShardBytes), maxShardBytes)
	}
	return layout.AlignToSegments(target)
}

// Writer materialises one encoded file into a store directory: the
// por.StreamTarget of a streaming encode. Create maps every shard
// writable and shared (on unix); the encode borrows the mappings through
// Images (writer_unix.go), placing every block at its slot and stamping
// the tags in place; Commit checksums the mappings and unmaps them,
// fsyncs the shards (under Options.Sync) and publishes the manifest by
// atomic rename.
//
// WriteAt and ReadAt address the shard files directly, for callers that
// patch or inspect a materialised store and, off unix, for the encode
// itself. If the process dies anywhere before Commit, the directory
// holds an uncommitted manifest and Open reports ErrIncomplete.
type Writer struct {
	dir    string
	man    Manifest
	layout blockfile.Layout
	opts   Options
	shards []*os.File

	// mu guards the loan of the mappings and their seal (unix).
	mu     sync.Mutex
	maps   [][]byte // per shard: its writable mapping until seal
	lent   bool     // Images has run
	sealed bool     // seal has run: the checksums are taken
	err    error    // latched: a failed loan or seal keeps Commit from publishing
	done   bool
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
		return nil, fmt.Errorf("store: shard size %d exceeds the %d-byte limit (slots address shards through a uint32)", shardBytes, int64(hardMaxShardBytes))
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
	// shard size); sweep any shard files beyond the new geometry so the
	// directory never carries verified-looking dead data.
	if err := removeStaleShardFiles(dir, len(man.Shards)); err != nil {
		return nil, err
	}

	w := &Writer{
		dir:    dir,
		man:    man,
		layout: layout,
		opts:   opts,
		shards: make([]*os.File, len(man.Shards)),
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
	}
	if err := w.mapShards(); err != nil {
		w.Close()
		return nil, err
	}
	return w, nil
}

func (w *Writer) shardPath(s int) string { return filepath.Join(w.dir, fmt.Sprintf(shardPattern, s)) }

// removeStaleShardFiles deletes shard files whose index is outside the
// new geometry — leftovers of a previous, larger store in the same
// directory — and every staging log (shard-NNNNN.log), which only an
// interrupted encode of an earlier build, one that staged placements in
// per-shard logs, can have left.
func removeStaleShardFiles(dir string, keep int) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("store: scan dir: %w", err)
	}
	for _, e := range entries {
		var idx int
		n, err := fmt.Sscanf(e.Name(), shardPattern, &idx)
		stale := err == nil && n == 1 && idx >= keep
		log := strings.HasPrefix(e.Name(), "shard-") && strings.HasSuffix(e.Name(), ".log")
		if stale || log {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				return fmt.Errorf("store: remove stale %s: %w", e.Name(), err)
			}
		}
	}
	return nil
}

// Manifest returns the (still uncommitted) manifest being built.
func (w *Writer) Manifest() Manifest { return w.man }

// Layout returns the layout the writer was created for.
func (w *Writer) Layout() blockfile.Layout { return w.layout }

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
// spanning shard boundaries as needed. The files and the mappings share
// one page cache, so an encode's stores and writes land in the same
// bytes, the later one winning, and Commit checksums what they hold.
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
// Blocks an encode stores through the mappings are visible at once, the
// files sharing their page cache.
func (w *Writer) ReadAt(p []byte, off int64) (int, error) {
	return readShards(w.man, w.shards, nil, p, off)
}

// Commit refuses an encode that failed inside Images, takes every shard's
// CRC-32C (seal: over the mappings, which it then unmaps; off unix, from
// the files), optionally fsyncs the shards, and publishes the completed
// manifest by atomic rename. After Commit the directory opens as a
// consistent Store.
func (w *Writer) Commit() (Manifest, error) {
	if w.done {
		return Manifest{}, errors.New("store: already committed")
	}
	if err := w.seal(); err != nil {
		return Manifest{}, err
	}
	for s, f := range w.shards {
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

// Close releases the writer's shard mappings and file handles. Without a
// prior Commit the directory is left in its uncommitted (crash-equivalent)
// state.
func (w *Writer) Close() error {
	first := w.unmapShards()
	for i, f := range w.shards {
		if f != nil {
			if err := f.Close(); err != nil && first == nil {
				first = err
			}
			w.shards[i] = nil
		}
	}
	return first
}

// castagnoli is the CRC-32C table shared by Commit and Verify.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)
