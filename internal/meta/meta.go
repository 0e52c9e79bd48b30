// Package meta defines the sidecar metadata file the CLI tools share: the
// owner's encoding parameters and master key for a prepared file. The
// encoded payload itself lives in a separate .geo file; this sidecar stays
// with the owner/TPA and never travels to the cloud.
package meta

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"repro/internal/blockfile"
)

// ErrEncoding: the sidecar describes a payload written in an encoding this
// build does not read — or says nothing about it, as sidecars did before
// the field existed. The payload's tags would all fail; there is no
// converter, so the fix is to run geoprep on the original file again.
var ErrEncoding = errors.New("meta: unsupported encoding version")

// Meta describes one prepared file.
type Meta struct {
	// Encoding is the blockfile.EncodingVersion the payload was written
	// in. Load refuses any other, a sidecar from before the field existed
	// (it decodes as 0) included.
	Encoding     int              `json:"encoding"`
	FileID       string           `json:"fileId"`
	OrigBytes    int64            `json:"origBytes"`
	Params       blockfile.Params `json:"params"`
	MasterKeyHex string           `json:"masterKeyHex"`
}

// Layout recomputes the blockfile layout.
func (m Meta) Layout() (blockfile.Layout, error) {
	return blockfile.NewLayout(m.Params, m.OrigBytes)
}

// MasterKey decodes the hex key.
func (m Meta) MasterKey() ([]byte, error) {
	key, err := hex.DecodeString(m.MasterKeyHex)
	if err != nil {
		return nil, fmt.Errorf("decode master key: %w", err)
	}
	if len(key) == 0 {
		return nil, fmt.Errorf("empty master key")
	}
	return key, nil
}

// Save writes the sidecar as indented JSON.
func Save(path string, m Meta) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("marshal meta: %w", err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o600); err != nil {
		return fmt.Errorf("write meta: %w", err)
	}
	return nil
}

// Load reads and validates a sidecar.
func Load(path string) (Meta, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Meta{}, fmt.Errorf("read meta: %w", err)
	}
	var m Meta
	if err := json.Unmarshal(b, &m); err != nil {
		return Meta{}, fmt.Errorf("parse meta: %w", err)
	}
	if m.Encoding != blockfile.EncodingVersion {
		return Meta{}, fmt.Errorf("%w: %s says version %d, this build reads and writes only version %d; re-run geoprep to encode the file again",
			ErrEncoding, path, m.Encoding, blockfile.EncodingVersion)
	}
	if err := m.Params.Validate(); err != nil {
		return Meta{}, err
	}
	if m.FileID == "" {
		return Meta{}, fmt.Errorf("meta: empty file id")
	}
	return m, nil
}
