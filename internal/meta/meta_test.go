package meta

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/blockfile"
)

func sample() Meta {
	return Meta{
		Encoding:     blockfile.EncodingVersion,
		FileID:       "file-1",
		OrigBytes:    12345,
		Params:       blockfile.DefaultParams(),
		MasterKeyHex: "00112233445566778899aabbccddeeff",
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	if err := Save(path, sample()); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != sample() {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	// Sidecar must not be world-readable (it holds the master key).
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Mode().Perm() != 0o600 {
		t.Fatalf("sidecar mode %v, want 0600", info.Mode().Perm())
	}
}

func TestLayoutAndKey(t *testing.T) {
	m := sample()
	layout, err := m.Layout()
	if err != nil {
		t.Fatal(err)
	}
	if layout.OrigBytes != 12345 {
		t.Fatalf("layout size %d", layout.OrigBytes)
	}
	key, err := m.MasterKey()
	if err != nil {
		t.Fatal(err)
	}
	if len(key) != 16 {
		t.Fatalf("key length %d", len(key))
	}
}

func TestMasterKeyErrors(t *testing.T) {
	m := sample()
	m.MasterKeyHex = "zz"
	if _, err := m.MasterKey(); err == nil {
		t.Fatal("bad hex accepted")
	}
	m.MasterKeyHex = ""
	if _, err := m.MasterKey(); err == nil {
		t.Fatal("empty key accepted")
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bad); err == nil {
		t.Fatal("malformed json accepted")
	}
	// Valid JSON, invalid params.
	noid := filepath.Join(dir, "noid.json")
	if err := os.WriteFile(noid, []byte(fmt.Sprintf(`{"encoding":%d,"fileId":"","origBytes":1,"params":{"BlockSize":16,"ChunkData":223,"ChunkTotal":255,"SegmentBlocks":5,"TagBits":20},"masterKeyHex":"00"}`, blockfile.EncodingVersion)), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(noid); err == nil {
		t.Fatal("empty file id accepted")
	}
	badParams := filepath.Join(dir, "badparams.json")
	if err := os.WriteFile(badParams, []byte(fmt.Sprintf(`{"encoding":%d,"fileId":"f","origBytes":1,"params":{"BlockSize":0},"masterKeyHex":"00"}`, blockfile.EncodingVersion)), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(badParams); err == nil {
		t.Fatal("invalid params accepted")
	}
}

// TestLoadRefusesOtherEncodings: a sidecar written before the encoding
// field existed, or for any encoding but this build's, is refused by name
// — with the versions and the remedy in the message — instead of loading
// and letting every tag of the payload fail as if the prover had cheated.
func TestLoadRefusesOtherEncodings(t *testing.T) {
	dir := t.TempDir()
	const rest = `"fileId":"f","origBytes":1,"params":{"BlockSize":16,"ChunkData":223,"ChunkTotal":255,"SegmentBlocks":5,"TagBits":20},"masterKeyHex":"00"}`
	for name, body := range map[string]string{
		"versionless": "{" + rest,
		"v1":          `{"encoding":1,` + rest,
		"future":      fmt.Sprintf(`{"encoding":%d,`, blockfile.EncodingVersion+1) + rest,
	} {
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, []byte(body), 0o600); err != nil {
			t.Fatal(err)
		}
		_, err := Load(path)
		if !errors.Is(err, ErrEncoding) {
			t.Fatalf("%s: got %v, want ErrEncoding", name, err)
		}
		if msg := err.Error(); !strings.Contains(msg, fmt.Sprintf("only version %d", blockfile.EncodingVersion)) || !strings.Contains(msg, "re-run geoprep") {
			t.Fatalf("%s: error does not name this build's version and the remedy: %v", name, err)
		}
	}
	current := filepath.Join(dir, "current.json")
	if err := os.WriteFile(current, []byte(fmt.Sprintf(`{"encoding":%d,`, blockfile.EncodingVersion)+rest), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(current); err != nil {
		t.Fatalf("current encoding refused: %v", err)
	}
}
