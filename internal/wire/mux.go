package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// This file is the framing and the handshake payloads; doc.go carries the
// full protocol spec.

// MuxVersion is the protocol version a connection's Hello must offer and
// its HelloAck must name. It changes whenever the framing or the
// handshake does, so a binary built before the change is refused rather
// than misread.
const MuxVersion = 3

// muxHdrLen is the frame header size: u32 length, u8 type, u32 stream.
const muxHdrLen = 9

// helloMagic opens every Hello payload, so a peer speaking some other
// protocol is never mistaken for one offering a version.
var helloMagic = [4]byte{'G', 'P', 'M', 'X'}

// AppendMuxHeader appends the header of a frame whose payload is n
// bytes long; the caller appends exactly n payload bytes after it. It lets
// a writer encode a payload straight into the frame instead of through an
// intermediate slice.
func AppendMuxHeader(dst []byte, typ byte, stream uint32, n int) ([]byte, error) {
	if n > MaxFrame {
		return dst, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	var hdr [muxHdrLen]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(n))
	hdr[4] = typ
	binary.BigEndian.PutUint32(hdr[5:], stream)
	return append(dst, hdr[:]...), nil
}

// AppendMuxFrame appends one encoded frame to dst and returns the
// extended slice. It is the allocation-free building block the writer
// paths use to send a frame in a single write.
func AppendMuxFrame(dst []byte, typ byte, stream uint32, payload []byte) ([]byte, error) {
	dst, err := AppendMuxHeader(dst, typ, stream, len(payload))
	if err != nil {
		return dst, err
	}
	return append(dst, payload...), nil
}

// WriteMuxFrame writes one frame as a single Write call: header and
// payload are staged through a pooled buffer, so a frame is never split
// across two system calls.
func WriteMuxFrame(w io.Writer, typ byte, stream uint32, payload []byte) error {
	buf, err := AppendMuxFrame(GetBuffer(0)[:0], typ, stream, payload)
	if err != nil {
		PutBuffer(buf)
		return err
	}
	_, werr := w.Write(buf)
	PutBuffer(buf)
	if werr != nil {
		return fmt.Errorf("write mux frame: %w", werr)
	}
	return nil
}

// parseMuxHeader splits a header and bounds the payload length.
func parseMuxHeader(hdr []byte) (typ byte, stream uint32, n int, err error) {
	size := binary.BigEndian.Uint32(hdr[:4])
	if size > MaxFrame {
		return 0, 0, 0, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, size)
	}
	return hdr[4], binary.BigEndian.Uint32(hdr[5:]), int(size), nil
}

// ReadMuxFrame reads one frame. The payload is drawn from the frame
// buffer pool: hand it back with PutBuffer after decoding, and do not
// retain it (every Decode* helper copies what it keeps). The header is
// read through a pooled buffer too, so a frame that fits the pool is read
// without allocating.
func ReadMuxFrame(r io.Reader) (typ byte, stream uint32, payload []byte, err error) {
	hdr := GetBuffer(muxHdrLen)
	var n int
	if _, err = io.ReadFull(r, hdr); err != nil {
		err = fmt.Errorf("read mux header: %w", err)
	} else {
		typ, stream, n, err = parseMuxHeader(hdr)
	}
	PutBuffer(hdr)
	if err != nil {
		return 0, 0, nil, err
	}
	payload = GetBuffer(n)
	if _, err := io.ReadFull(r, payload); err != nil {
		PutBuffer(payload)
		return 0, 0, nil, fmt.Errorf("read mux payload: %w", err)
	}
	return typ, stream, payload, nil
}

// ReadMuxFrameOwned reads one frame into a fresh slice of exactly the
// payload's size, which the caller owns and may keep: the verifier's
// demux hands it to the waiting round, whose transcript retains it. The
// header is parsed where the buffered reader holds it, so a frame that
// arrived whole costs one read of the connection and one allocation.
func ReadMuxFrameOwned(br *bufio.Reader) (typ byte, stream uint32, payload []byte, err error) {
	hdr, err := br.Peek(muxHdrLen)
	if err != nil {
		if len(hdr) > 0 && errors.Is(err, io.EOF) { // as io.ReadFull reports a cut header
			err = io.ErrUnexpectedEOF
		}
		return 0, 0, nil, fmt.Errorf("read mux header: %w", err)
	}
	typ, stream, n, err := parseMuxHeader(hdr)
	if err != nil {
		return 0, 0, nil, err
	}
	_, _ = br.Discard(muxHdrLen) // cannot fail: Peek has buffered these bytes
	payload = make([]byte, n)
	if _, err := io.ReadFull(br, payload); err != nil {
		return 0, 0, nil, fmt.Errorf("read mux payload: %w", err)
	}
	return typ, stream, payload, nil
}

// Hello opens a connection: the client's first frame, on stream 0.
type Hello struct {
	MaxVersion uint16
}

// Encode serialises the hello: magic ‖ u16 version.
func (m Hello) Encode() []byte {
	out := make([]byte, 4+2)
	copy(out, helloMagic[:])
	binary.BigEndian.PutUint16(out[4:], m.MaxVersion)
	return out
}

// DecodeHello parses a Hello payload.
func DecodeHello(b []byte) (Hello, error) {
	if len(b) != 6 || string(b[:4]) != string(helloMagic[:]) {
		return Hello{}, fmt.Errorf("%w: bad hello", ErrMalformed)
	}
	return Hello{MaxVersion: binary.BigEndian.Uint16(b[4:])}, nil
}

// HelloAck is the server's answer to a Hello it accepts, also on stream 0.
type HelloAck struct {
	Version uint16
}

// Encode serialises the ack: u16 version.
func (m HelloAck) Encode() []byte {
	return binary.BigEndian.AppendUint16(nil, m.Version)
}

// DecodeHelloAck parses a HelloAck payload.
func DecodeHelloAck(b []byte) (HelloAck, error) {
	if len(b) != 2 {
		return HelloAck{}, fmt.Errorf("%w: bad hello ack", ErrMalformed)
	}
	return HelloAck{Version: binary.BigEndian.Uint16(b)}, nil
}
