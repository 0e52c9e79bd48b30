// Package blockfile defines the block/chunk/segment layout of GeoProof's
// encoded files (paper §V-A):
//
//   - the file is split into ℓ_B-bit blocks (128 bits = one AES block),
//   - blocks are grouped into k-block chunks for error correction
//     ((255,223) chunks in the paper),
//   - after encryption and permutation, blocks are regrouped into v-block
//     segments, each carrying a ℓ_τ-bit MAC tag (v = 5, ℓ_τ = 20 in the
//     paper's example), giving 660-bit segments.
//
// The Layout type does all the arithmetic once so that the POR encoder,
// the prover's storage layer and the experiment harness agree on every
// offset and count.
package blockfile

import (
	"errors"
	"fmt"

	"repro/internal/crypt"
)

// EncodingVersion names the byte encoding the POR pipeline lays into a
// Layout: it changes whenever the same file, key and Params would come
// out as different stored bytes, as when a keyed stage — cipher,
// permutation or tag — is replaced. Everything that persists encoded
// bytes records it beside them (the store manifest, the owner's sidecar)
// and refuses any other value on the way back in: bytes of another
// encoding are not damaged, they are unreadable, and would otherwise show
// up as a prover failing every tag. Version 1 was HMAC-SHA256 tags over a
// binary Feistel on a power-of-two domain; version 2 is AES-CMAC tags over
// a Feistel on ⌈√n⌉ × ⌈√n⌉.
const EncodingVersion = 2

// Default parameters from the paper's worked example.
const (
	DefaultBlockSize     = 16  // ℓ_B = 128 bits
	DefaultChunkData     = 223 // RS k
	DefaultChunkTotal    = 255 // RS n
	DefaultSegmentBlocks = 5   // v
	DefaultTagBits       = 20  // ℓ_τ
)

// ErrBadParams reports an invalid layout parameterisation.
var ErrBadParams = errors.New("blockfile: invalid layout parameters")

// Params selects the encoded-file geometry.
type Params struct {
	BlockSize     int // bytes per block
	ChunkData     int // data blocks per ECC chunk (RS k)
	ChunkTotal    int // total blocks per ECC chunk (RS n)
	SegmentBlocks int // blocks per MACed segment (v)
	TagBits       int // MAC tag width ℓ_τ
}

// DefaultParams returns the paper's example parameters.
func DefaultParams() Params {
	return Params{
		BlockSize:     DefaultBlockSize,
		ChunkData:     DefaultChunkData,
		ChunkTotal:    DefaultChunkTotal,
		SegmentBlocks: DefaultSegmentBlocks,
		TagBits:       DefaultTagBits,
	}
}

// Validate checks the parameters for consistency.
func (p Params) Validate() error {
	switch {
	case p.BlockSize <= 0:
		return fmt.Errorf("%w: block size %d", ErrBadParams, p.BlockSize)
	case p.ChunkData <= 0 || p.ChunkTotal <= p.ChunkData || p.ChunkTotal > 255:
		return fmt.Errorf("%w: chunk %d/%d", ErrBadParams, p.ChunkData, p.ChunkTotal)
	case p.SegmentBlocks <= 0:
		return fmt.Errorf("%w: segment blocks %d", ErrBadParams, p.SegmentBlocks)
	case p.TagBits < 8 || p.TagBits > crypt.MaxTagBits:
		return fmt.Errorf("%w: tag bits %d", ErrBadParams, p.TagBits)
	}
	return nil
}

// TagSize returns the serialised tag size in bytes.
func (p Params) TagSize() int { return (p.TagBits + 7) / 8 }

// SegmentSize returns the on-disk size of one segment: v blocks plus the
// embedded tag.
func (p Params) SegmentSize() int { return p.SegmentBlocks*p.BlockSize + p.TagSize() }

// Layout captures every derived quantity for a file of a given size.
type Layout struct {
	Params
	OrigBytes     int64 // original file length
	DataBlocks    int64 // blocks before padding to a chunk boundary
	PaddedBlocks  int64 // blocks after padding to a multiple of ChunkData
	Chunks        int64 // ECC chunks
	ECCBlocks     int64 // blocks after error correction (Chunks·ChunkTotal)
	TotalBlocks   int64 // ECC blocks padded to a multiple of SegmentBlocks
	Segments      int64 // MACed segments
	EncodedBytes  int64 // final stored size including tags
	PaddingBlocks int64 // zero blocks appended before ECC
}

// NewLayout computes the layout for a file of origBytes bytes.
func NewLayout(p Params, origBytes int64) (Layout, error) {
	if err := p.Validate(); err != nil {
		return Layout{}, err
	}
	if origBytes < 0 {
		return Layout{}, fmt.Errorf("%w: negative file size", ErrBadParams)
	}
	bs := int64(p.BlockSize)
	dataBlocks := (origBytes + bs - 1) / bs
	if dataBlocks == 0 {
		dataBlocks = 1 // an empty file still occupies one padded block
	}
	k := int64(p.ChunkData)
	chunks := (dataBlocks + k - 1) / k
	padded := chunks * k
	ecc := chunks * int64(p.ChunkTotal)
	v := int64(p.SegmentBlocks)
	total := ((ecc + v - 1) / v) * v
	segments := total / v
	encoded := segments * int64(p.SegmentSize())
	return Layout{
		Params:        p,
		OrigBytes:     origBytes,
		DataBlocks:    dataBlocks,
		PaddedBlocks:  padded,
		Chunks:        chunks,
		ECCBlocks:     ecc,
		TotalBlocks:   total,
		Segments:      segments,
		EncodedBytes:  encoded,
		PaddingBlocks: padded - dataBlocks,
	}, nil
}

// ECCOverhead returns the fractional expansion contributed by error
// correction (≈0.1435 for (255,223); the paper quotes "about 14%").
func (l Layout) ECCOverhead() float64 {
	return float64(l.ChunkTotal)/float64(l.ChunkData) - 1
}

// MACOverhead returns the fractional expansion contributed by the embedded
// tags relative to the tagless blocks (20/(5·128) = 3.125% with defaults;
// the paper rounds to "only 2.5%").
func (l Layout) MACOverhead() float64 {
	return float64(l.TagBits) / float64(8*l.SegmentBlocks*l.BlockSize)
}

// TotalOverhead returns the overall expansion of the encoded file over the
// original bytes (paper: "about 16.5%" for the example parameters).
func (l Layout) TotalOverhead() float64 {
	if l.OrigBytes == 0 {
		return 0
	}
	return float64(l.EncodedBytes)/float64(l.OrigBytes) - 1
}

// ChunkDataBytes returns the byte length of one chunk's data blocks
// (k·blockSize), the unit the streaming encoder reads per chunk.
func (l Layout) ChunkDataBytes() int { return l.ChunkData * l.BlockSize }

// ChunkTotalBytes returns the byte length of one error-corrected chunk
// (n·blockSize), the unit the streaming pipeline encrypts and scatters.
func (l Layout) ChunkTotalBytes() int { return l.ChunkTotal * l.BlockSize }

// SegmentPayloadBytes returns the byte length of one segment's blocks,
// excluding the embedded tag (v·blockSize).
func (l Layout) SegmentPayloadBytes() int { return l.SegmentBlocks * l.BlockSize }

// StoredBlockOffset returns the byte offset in the encoded file F̃ at which
// permuted block d lives: blocks are grouped v per segment, and every
// segment carries its trailing tag, so consecutive permuted positions are
// contiguous bytes except across segment boundaries. It places and
// gathers blocks where the streaming engine reaches the file through
// WriteAt and ReadAt, and is the reference for SlotGeom's 32-bit map.
func (l Layout) StoredBlockOffset(d int64) int64 {
	v := int64(l.SegmentBlocks)
	return (d/v)*int64(l.SegmentSize()) + (d%v)*int64(l.BlockSize)
}

// AlignToSegments rounds n bytes down to a whole number of segments,
// never below one segment. Persistent stores size their shards with this
// so a shard boundary can never split a segment: every challenged segment
// read is then a single contiguous read inside one shard.
func (l Layout) AlignToSegments(n int64) int64 {
	seg := int64(l.SegmentSize())
	if n < seg {
		return seg
	}
	return (n / seg) * seg
}

// SegmentOffset returns the byte offset of segment i in the encoded file.
func (l Layout) SegmentOffset(i int64) (int64, error) {
	if i < 0 || i >= l.Segments {
		return 0, fmt.Errorf("blockfile: segment %d outside [0, %d)", i, l.Segments)
	}
	return i * int64(l.SegmentSize()), nil
}
