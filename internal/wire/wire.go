package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Frame types. The verifier↔prover leg carries segment requests and
// responses; the TPA↔verifier-daemon leg carries audit requests and
// signed transcripts; pings, errors and the Hello/HelloAck that opens a
// connection travel on both.
const (
	TypeSegmentRequest   byte = 1
	TypeSegmentResponse  byte = 2
	TypeError            byte = 3
	TypePing             byte = 4
	TypePong             byte = 5
	TypeAuditRequest     byte = 6
	TypeSignedTranscript byte = 7
	TypeHello            byte = 8
	TypeHelloAck         byte = 9
)

// MaxFrame bounds a frame payload (16 MiB): far beyond any legitimate
// GeoProof message, small enough to stop memory-exhaustion games.
const MaxFrame = 16 << 20

// Errors reported by the framing layer.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")
	ErrMalformed     = errors.New("wire: malformed payload")
	ErrRemote        = errors.New("wire: remote error")
)

// SegmentRequest asks for one segment of a file.
type SegmentRequest struct {
	FileID string
	Index  uint64
}

// EncodedLen is the size of the request's encoding.
func (m SegmentRequest) EncodedLen() int { return 2 + len(m.FileID) + 8 }

// Append appends the request's encoding — u16 id length ‖ id ‖ u64 index
// — to dst, so a writer can encode it straight into a frame.
func (m SegmentRequest) Append(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(m.FileID)))
	dst = append(dst, m.FileID...)
	return binary.BigEndian.AppendUint64(dst, m.Index)
}

// Encode serialises the request.
func (m SegmentRequest) Encode() []byte {
	return m.Append(make([]byte, 0, m.EncodedLen()))
}

// SplitSegmentRequest parses a SegmentRequest payload without copying:
// id aliases b, so a server can compare it with the file ID it already
// holds before paying for a string.
func SplitSegmentRequest(b []byte) (id []byte, index uint64, err error) {
	if len(b) < 2 {
		return nil, 0, fmt.Errorf("%w: short request", ErrMalformed)
	}
	n := int(binary.BigEndian.Uint16(b))
	if len(b) != 2+n+8 {
		return nil, 0, fmt.Errorf("%w: request length %d for id length %d", ErrMalformed, len(b), n)
	}
	return b[2 : 2+n], binary.BigEndian.Uint64(b[2+n:]), nil
}

// ErrorMessage reports a server-side failure.
type ErrorMessage struct {
	Msg string
}

// Encode serialises the error.
func (m ErrorMessage) Encode() []byte { return []byte(m.Msg) }

// DecodeErrorMessage parses an error payload into a wrapped ErrRemote.
func DecodeErrorMessage(b []byte) error {
	return fmt.Errorf("%w: %s", ErrRemote, string(b))
}
