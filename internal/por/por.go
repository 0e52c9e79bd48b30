package por

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/blockfile"
	"repro/internal/crypt"
	"repro/internal/parallel"
	"repro/internal/prp"
	"repro/internal/reedsolomon"
)

// Errors reported by the POR layer.
var (
	ErrTagMismatch   = errors.New("por: segment tag mismatch")
	ErrBadSegment    = errors.New("por: segment index out of range")
	ErrUnrecoverable = errors.New("por: file unrecoverable")
	ErrBadEncoding   = errors.New("por: malformed encoded file")
)

// EncodedFile is the client-side description of one prepared file: the
// encoded bytes F̃ handed to the cloud plus the layout needed to audit and
// extract it. The keys are NOT stored here; they are re-derived from the
// client's master secret.
type EncodedFile struct {
	FileID string
	Layout blockfile.Layout
	Data   []byte // F̃: segments with embedded tags
}

// Encoder prepares and recovers files under one client master key.
type Encoder struct {
	master []byte
	params blockfile.Params
	conc   int // 0 = runtime.NumCPU(), 1 = sequential, else worker cap
}

// NewEncoder creates an encoder with the paper's default parameters and
// automatic concurrency; use WithParams and WithConcurrency to override.
func NewEncoder(master []byte) *Encoder {
	m := make([]byte, len(master))
	copy(m, master)
	return &Encoder{master: m, params: blockfile.DefaultParams()}
}

// WithParams returns a copy of the encoder using custom layout parameters.
func (e *Encoder) WithParams(p blockfile.Params) *Encoder {
	m := make([]byte, len(e.master))
	copy(m, e.master)
	return &Encoder{master: m, params: p, conc: e.conc}
}

// WithConcurrency returns a copy of the encoder whose pipeline stages fan
// out over at most n workers. n ≤ 0 selects runtime.NumCPU(); n = 1 runs
// every stage sequentially on the calling goroutine. The encoded bytes
// are identical for every setting.
func (e *Encoder) WithConcurrency(n int) *Encoder {
	m := make([]byte, len(e.master))
	copy(m, e.master)
	if n < 0 {
		n = 0
	}
	return &Encoder{master: m, params: e.params, conc: n}
}

// Concurrency returns the effective worker count the pipeline will use.
func (e *Encoder) Concurrency() int { return parallel.Resolve(e.conc) }

// Params returns the layout parameters in use.
func (e *Encoder) Params() blockfile.Params { return e.params }

func (e *Encoder) pipeline(fileID string, layout blockfile.Layout) (crypt.KeySet, *reedsolomon.BlockCode, *crypt.Tagger, *prp.Feistel, error) {
	keys := crypt.DeriveKeys(e.master, fileID)
	code, err := reedsolomon.New(layout.ChunkTotal, layout.ChunkData)
	if err != nil {
		return keys, nil, nil, nil, err
	}
	bc, err := reedsolomon.NewBlockCode(code, layout.BlockSize)
	if err != nil {
		return keys, nil, nil, nil, err
	}
	tagger, err := crypt.NewTagger(keys.MAC, layout.TagBits)
	if err != nil {
		return keys, nil, nil, nil, err
	}
	perm, err := prp.NewFeistel(keys.PRP, uint64(layout.TotalBlocks), 8)
	if err != nil {
		return keys, nil, nil, nil, err
	}
	return keys, bc, tagger, perm, nil
}

// Encode runs the full setup phase over file and returns the encoded file
// ready to upload. It drives the shared streaming chunk pipeline over an
// in-memory target, so the only whole-file allocation is the returned
// encoded buffer itself — the padded, error-corrected and permuted
// intermediate slabs of the original formulation never materialise.
func (e *Encoder) Encode(fileID string, file []byte) (*EncodedFile, error) {
	layout, err := blockfile.NewLayout(e.params, int64(len(file)))
	if err != nil {
		return nil, fmt.Errorf("layout: %w", err)
	}
	sc, err := e.newStreamCoder(fileID, layout)
	if err != nil {
		return nil, err
	}
	out := NewMemTarget(layout.EncodedBytes)
	if err := sc.encodeTo(bytes.NewReader(file), int64(len(file)), out); err != nil {
		return nil, err
	}
	return &EncodedFile{FileID: fileID, Layout: layout, Data: out.B}, nil
}

// VerifySegments is the TPA-side check of audited segments: it checks
// the embedded tag of each (index, segment‖tag) pair against
// τ_i = MAC_K′(S_i, i, fid). The MAC key is derived a single time and the
// checks fan out over the encoder's workers. The returned slice is
// parallel to indices — nil for a segment that verifies, otherwise
// ErrBadSegment (index out of range), ErrBadEncoding (wrong length) or
// ErrTagMismatch. The second return value reports setup failures only
// (bad parameters).
func (e *Encoder) VerifySegments(fileID string, layout blockfile.Layout, indices []int64, segs [][]byte) ([]error, error) {
	if len(indices) != len(segs) {
		return nil, fmt.Errorf("%w: %d indices for %d segments", ErrBadEncoding, len(indices), len(segs))
	}
	tagger, err := crypt.NewTagger(crypt.DeriveKey(e.master, crypt.LabelMAC, fileID), layout.TagBits)
	if err != nil {
		return nil, err
	}
	segBytes := layout.SegmentBlocks * layout.BlockSize
	verdicts := make([]error, len(indices))
	parallel.For(e.Concurrency(), len(indices), func(j int) error {
		i, seg := indices[j], segs[j]
		switch {
		case i < 0 || i >= layout.Segments:
			verdicts[j] = fmt.Errorf("%w: %d of %d", ErrBadSegment, i, layout.Segments)
		case len(seg) != layout.SegmentSize():
			verdicts[j] = fmt.Errorf("%w: segment is %d bytes, want %d", ErrBadEncoding, len(seg), layout.SegmentSize())
		case !tagger.VerifyTag(seg[:segBytes], uint64(i), fileID, seg[segBytes:]):
			verdicts[j] = ErrTagMismatch
		}
		return nil
	})
	return verdicts, nil
}

// Extract recovers the original file from (possibly damaged) encoded
// bytes. Segments whose tags fail verification are treated as suspect and
// their blocks become Reed-Solomon erasures, which doubles the correction
// budget compared to blind error decoding.
//
// Aliasing contract: data is only ever read — never modified, copied
// wholesale, or retained past the call. (Earlier versions copied the
// whole input before un-permuting; the shared chunk pipeline gathers
// blocks directly from data instead, so the defensive copy and the
// full-size permuted/ecc staging slabs are gone.) The caller must not
// mutate data concurrently with the call; the returned slice is freshly
// allocated and never aliases data.
func (e *Encoder) Extract(fileID string, layout blockfile.Layout, data []byte) ([]byte, error) {
	if int64(len(data)) != layout.EncodedBytes {
		return nil, fmt.Errorf("%w: %d bytes, want %d", ErrBadEncoding, len(data), layout.EncodedBytes)
	}
	sc, err := e.newStreamCoder(fileID, layout)
	if err != nil {
		return nil, err
	}
	out := NewMemTarget(layout.OrigBytes)
	if err := sc.extractTo(&MemTarget{B: data}, out); err != nil {
		return nil, err
	}
	return out.B, nil
}
