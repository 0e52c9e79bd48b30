package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Frame types, one namespace for both framings. The prover leg carries
// segment requests/responses, pings and errors in v2 mux frames; the
// TPA↔verifier-daemon leg carries audit requests, signed transcripts,
// pings and errors in v1 frames; Hello/HelloAck open either leg and
// always travel v1-framed.
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

// WriteFrame writes one frame.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(payload))
	}
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
	hdr[4] = typ
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("write header: %w", err)
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return fmt.Errorf("write payload: %w", err)
		}
	}
	return nil
}

// ReadFrame reads one frame. The payload is freshly allocated and owned
// by the caller; hot paths that recycle payloads use ReadFramePooled.
func ReadFrame(r io.Reader) (typ byte, payload []byte, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, fmt.Errorf("read header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n > MaxFrame {
		return 0, nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("read payload: %w", err)
	}
	return hdr[4], payload, nil
}

// ReadFramePooled is ReadFrame with the payload drawn from the frame
// buffer pool: the caller must hand the payload back with PutBuffer once
// it is done (after decoding — every Decode* helper copies what it
// keeps), and must not retain it past that.
func ReadFramePooled(r io.Reader) (typ byte, payload []byte, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, fmt.Errorf("read header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n > MaxFrame {
		return 0, nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	payload = GetBuffer(int(n))
	if _, err := io.ReadFull(r, payload); err != nil {
		PutBuffer(payload)
		return 0, nil, fmt.Errorf("read payload: %w", err)
	}
	return hdr[4], payload, nil
}

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

// DecodeSegmentRequest parses a SegmentRequest payload.
func DecodeSegmentRequest(b []byte) (SegmentRequest, error) {
	id, index, err := SplitSegmentRequest(b)
	if err != nil {
		return SegmentRequest{}, err
	}
	return SegmentRequest{FileID: string(id), Index: index}, nil
}

// SegmentResponse carries the raw segment bytes (payload ‖ tag).
type SegmentResponse struct {
	Data []byte
}

// Encode serialises the response.
func (m SegmentResponse) Encode() []byte { return m.Data }

// DecodeSegmentResponse parses a SegmentResponse payload.
func DecodeSegmentResponse(b []byte) (SegmentResponse, error) {
	return SegmentResponse{Data: b}, nil
}

// ErrorMessage reports a prover-side failure.
type ErrorMessage struct {
	Msg string
}

// Encode serialises the error.
func (m ErrorMessage) Encode() []byte { return []byte(m.Msg) }

// DecodeErrorMessage parses an error payload into a wrapped ErrRemote.
func DecodeErrorMessage(b []byte) error {
	return fmt.Errorf("%w: %s", ErrRemote, string(b))
}
