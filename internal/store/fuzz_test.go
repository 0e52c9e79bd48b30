package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/blockfile"
)

// seedManifest builds a valid committed manifest for the fuzz corpus.
func seedManifest(t *testing.F, orig int64, shardTarget int64) []byte {
	t.Helper()
	layout, err := blockfile.NewLayout(blockfile.DefaultParams(), orig)
	if err != nil {
		t.Fatal(err)
	}
	shardBytes := shardSizeFor(layout, shardTarget)
	m := Manifest{
		Version:      manifestVersion,
		Epoch:        3,
		FileID:       "fuzz-file",
		OrigBytes:    orig,
		Params:       layout.Params,
		ShardBytes:   shardBytes,
		EncodedBytes: layout.EncodedBytes,
		Complete:     true,
		Shards:       make([]ShardInfo, shardCount(layout.EncodedBytes, shardBytes)),
	}
	for s := range m.Shards {
		m.Shards[s] = ShardInfo{Bytes: shardLen(s, m.EncodedBytes, shardBytes), CRC32C: uint32(s) * 0x9e3779b9}
	}
	b, err := m.encode()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// shardSizeManifest returns a committed one-shard manifest for a small
// file, claiming shardBytes as its shard size, and its JSON without the
// codec's validation.
func shardSizeManifest(t testing.TB, shardBytes int64) (Manifest, []byte) {
	t.Helper()
	layout, err := blockfile.NewLayout(blockfile.DefaultParams(), 5000)
	if err != nil {
		t.Fatal(err)
	}
	m := Manifest{
		Version:      manifestVersion,
		Epoch:        2,
		FileID:       "f",
		OrigBytes:    layout.OrigBytes,
		Params:       layout.Params,
		ShardBytes:   shardBytes,
		EncodedBytes: layout.EncodedBytes,
		Complete:     true,
		Shards:       []ShardInfo{{Bytes: layout.EncodedBytes}},
	}
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return m, b
}

// overLimitShardBytes is the smallest shard size of the paper's geometry
// past hardMaxShardBytes: one segment over the largest a Writer makes.
func overLimitShardBytes() int64 {
	seg := int64(blockfile.DefaultParams().SegmentSize())
	return (hardMaxShardBytes/seg + 1) * seg
}

// TestManifestRefusesOversizedShards: the read path addresses a shard with
// 32-bit arithmetic, so a manifest whose shard size is one segment past
// the limit Create enforces — hand-edited, or written by something else —
// fails decoding and Open with ErrCorrupt, while one at the largest size a
// Writer can make still opens.
func TestManifestRefusesOversizedShards(t *testing.T) {
	over := overLimitShardBytes()
	_, atLimit := shardSizeManifest(t, over-int64(blockfile.DefaultParams().SegmentSize()))
	if _, err := decodeManifest(atLimit); err != nil {
		t.Fatalf("the largest shard size a Writer makes: %v", err)
	}
	m, b := shardSizeManifest(t, over)
	if _, err := decodeManifest(b); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("decode of a %d-byte shard size: %v, want ErrCorrupt", over, err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, manifestName), b, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf(shardPattern, 0)), make([]byte, m.EncodedBytes), 0o644); err != nil {
		t.Fatal(err)
	}
	if st, err := Open(dir); !errors.Is(err, ErrCorrupt) {
		if err == nil {
			st.Close()
		}
		t.Fatalf("Open of a %d-byte shard size: %v, want ErrCorrupt", over, err)
	}
}

// FuzzManifestRoundTrip pins the manifest codec: any byte string that
// decodes into a valid manifest must re-encode and decode back to the
// identical value, and decoding must never accept a manifest that fails
// validation. This is the surface a prover trusts at boot, so the codec
// must be exact.
func FuzzManifestRoundTrip(f *testing.F) {
	f.Add(seedManifest(f, 1<<20, 0))
	f.Add(seedManifest(f, 12345, 4<<10))
	f.Add(seedManifest(f, 0, 0))
	_, oversized := shardSizeManifest(f, overLimitShardBytes())
	f.Add(oversized)
	f.Add([]byte("{}"))
	f.Add([]byte(`{"version":1,"fileId":"x","shards":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeManifest(data)
		if err != nil {
			return // invalid input rejected: fine
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("decodeManifest accepted an invalid manifest: %v", err)
		}
		b, err := m.encode()
		if err != nil {
			t.Fatalf("re-encode of a decoded manifest failed: %v", err)
		}
		m2, err := decodeManifest(b)
		if err != nil {
			t.Fatalf("decode of re-encoded manifest failed: %v", err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("manifest round trip drifted:\n first %+v\nsecond %+v", m, m2)
		}
	})
}
