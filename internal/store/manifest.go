package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/blockfile"
)

// Errors reported when opening or validating a store directory.
var (
	// ErrNoManifest: the directory holds no committed manifest at all —
	// either it was never a store, or a crash hit before the very first
	// manifest write.
	ErrNoManifest = errors.New("store: no manifest")
	// ErrIncomplete: a manifest exists but was never committed — the
	// encode that created it died partway. The shard contents are
	// unusable; re-run Setup into the same directory.
	ErrIncomplete = errors.New("store: encode did not complete")
	// ErrCorrupt: the manifest or the shard files contradict themselves
	// (bad JSON, impossible geometry, sizes or checksums that do not
	// match).
	ErrCorrupt = errors.New("store: corrupt")
	// ErrFormatVersion: the directory was written by a build with another
	// on-disk format. The shards are intact but mean nothing to this
	// build — there is no converter; re-run geoprep on the original file.
	ErrFormatVersion = errors.New("store: unsupported format version")
)

const (
	// manifestVersion is the on-disk format: the manifest's own schema and
	// the encoding of the shard bytes, which version together.
	manifestVersion = blockfile.EncodingVersion
	manifestName    = "manifest.json"
	shardPattern    = "shard-%05d.bin"
	logPattern      = "shard-%05d.log"
)

// ShardInfo describes one committed shard file.
type ShardInfo struct {
	// Bytes is the shard file's exact length: ShardBytes for every shard
	// but possibly the last.
	Bytes int64 `json:"bytes"`
	// CRC32C is the Castagnoli checksum of the shard contents at commit
	// time.
	CRC32C uint32 `json:"crc32c"`
}

// Manifest is the store's self-description, committed by atomic rename so
// a reopened directory is either the previous consistent state or the new
// one — never a torn mixture. Epoch counts manifest commits: a prover can
// tell a re-encoded store from the one it served before.
type Manifest struct {
	Version   int              `json:"version"`
	Epoch     uint64           `json:"epoch"`
	FileID    string           `json:"fileId"`
	OrigBytes int64            `json:"origBytes"`
	Params    blockfile.Params `json:"params"`
	// ShardBytes is the common shard size (segment-aligned); the last
	// shard holds the remainder.
	ShardBytes   int64 `json:"shardBytes"`
	EncodedBytes int64 `json:"encodedBytes"`
	// Complete is false from Create until Commit; an incomplete store is
	// detected at Open and must be re-encoded.
	Complete bool        `json:"complete"`
	Shards   []ShardInfo `json:"shards"`
}

// Layout recomputes the blockfile layout the manifest pins down.
func (m Manifest) Layout() (blockfile.Layout, error) {
	return blockfile.NewLayout(m.Params, m.OrigBytes)
}

// shardCount returns how many shards cover EncodedBytes.
func shardCount(encoded, shardBytes int64) int {
	if encoded == 0 {
		return 1 // an empty payload still gets one (empty) shard
	}
	return int((encoded + shardBytes - 1) / shardBytes)
}

// shardLen returns the expected length of shard s.
func shardLen(s int, encoded, shardBytes int64) int64 {
	lo := int64(s) * shardBytes
	n := encoded - lo
	if n > shardBytes {
		n = shardBytes
	}
	if n < 0 {
		n = 0
	}
	return n
}

// Validate checks the manifest's internal consistency: geometry, shard
// map and sizes. Checksums are content properties and are verified
// against the shard files by (*Store).Verify, not here.
func (m Manifest) Validate() error {
	if m.Version != manifestVersion {
		return fmt.Errorf("%w: manifest is format version %d, this build reads and writes only version %d; re-run geoprep to encode the file again",
			ErrFormatVersion, m.Version, manifestVersion)
	}
	if m.FileID == "" {
		return fmt.Errorf("%w: empty file id", ErrCorrupt)
	}
	layout, err := m.Layout()
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if m.EncodedBytes != layout.EncodedBytes {
		return fmt.Errorf("%w: manifest says %d encoded bytes, layout derives %d", ErrCorrupt, m.EncodedBytes, layout.EncodedBytes)
	}
	if m.ShardBytes <= 0 || m.ShardBytes%int64(layout.SegmentSize()) != 0 {
		return fmt.Errorf("%w: shard size %d is not a positive segment multiple", ErrCorrupt, m.ShardBytes)
	}
	if m.ShardBytes > hardMaxShardBytes {
		// No Writer makes such a shard, and the read path addresses a
		// shard with 32-bit arithmetic (slotGeom).
		return fmt.Errorf("%w: shard size %d exceeds the %d-byte limit", ErrCorrupt, m.ShardBytes, int64(hardMaxShardBytes))
	}
	want := shardCount(m.EncodedBytes, m.ShardBytes)
	if len(m.Shards) != want {
		return fmt.Errorf("%w: %d shards listed, geometry needs %d", ErrCorrupt, len(m.Shards), want)
	}
	for s, si := range m.Shards {
		if wantLen := shardLen(s, m.EncodedBytes, m.ShardBytes); si.Bytes != wantLen {
			return fmt.Errorf("%w: shard %d is %d bytes in the manifest, geometry needs %d", ErrCorrupt, s, si.Bytes, wantLen)
		}
	}
	return nil
}

// encode serialises the manifest; decodeManifest is its inverse. Both
// enforce Validate so a decoded manifest is always usable, and the pair
// round-trips exactly (FuzzManifestRoundTrip pins this).
func (m Manifest) encode() ([]byte, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("store: marshal manifest: %w", err)
	}
	return append(b, '\n'), nil
}

func decodeManifest(b []byte) (Manifest, error) {
	var m Manifest
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return Manifest{}, fmt.Errorf("%w: parse manifest: %v", ErrCorrupt, err)
	}
	if err := m.Validate(); err != nil {
		return Manifest{}, err
	}
	return m, nil
}

// writeManifest commits the manifest crash-safely: write a temp file in
// the same directory, fsync it, rename over the live name, fsync the
// directory. A crash at any point leaves either the old manifest or the
// new one.
func writeManifest(dir string, m Manifest) error {
	b, err := m.encode()
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, manifestName+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: create manifest temp: %w", err)
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return fmt.Errorf("store: write manifest: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: sync manifest: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: close manifest: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		return fmt.Errorf("store: commit manifest: %w", err)
	}
	return syncDir(dir)
}

// loadManifest reads and validates the committed manifest.
func loadManifest(dir string) (Manifest, error) {
	b, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return Manifest{}, fmt.Errorf("%w in %s", ErrNoManifest, dir)
		}
		return Manifest{}, fmt.Errorf("store: read manifest: %w", err)
	}
	return decodeManifest(b)
}

// syncDir fsyncs a directory so a just-renamed manifest survives power
// loss; platforms that cannot sync directories are tolerated.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	_ = d.Sync()
	return nil
}
