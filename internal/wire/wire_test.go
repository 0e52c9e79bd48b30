package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"
)

// TestFrameRoundTrip: a Hello travels like any other frame — on stream 0,
// the stream no request ever uses — and reads back as it was written.
func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	hello := Hello{MaxVersion: MuxVersion}
	if err := WriteMuxFrame(&buf, TypeHello, 0, hello.Encode()); err != nil {
		t.Fatal(err)
	}
	typ, stream, payload, err := ReadMuxFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	defer PutBuffer(payload)
	if typ != TypeHello || stream != 0 {
		t.Fatalf("typ=%d stream=%d", typ, stream)
	}
	if got, err := DecodeHello(payload); err != nil || got != hello {
		t.Fatalf("hello %+v, %v", got, err)
	}
}

// TestFrameEmptyPayload: a frame with no payload is its header and
// nothing else.
func TestFrameEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMuxFrame(&buf, TypePing, 3, nil); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != muxHdrLen {
		t.Fatalf("empty frame is %d bytes on the wire, want %d", buf.Len(), muxHdrLen)
	}
	typ, stream, got, err := ReadMuxFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	PutBuffer(got)
	if typ != TypePing || stream != 3 || len(got) != 0 {
		t.Fatalf("typ=%d stream=%d len=%d", typ, stream, len(got))
	}
}

func TestFrameTooLargeWrite(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMuxFrame(&buf, TypePing, 1, make([]byte, MaxFrame+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("got %v", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("refused frame still wrote %d bytes", buf.Len())
	}
	if _, err := AppendMuxHeader(nil, TypePing, 1, MaxFrame+1); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("AppendMuxHeader: %v", err)
	}
}

func TestFrameTooLargeRead(t *testing.T) {
	// Header claiming a huge payload must be rejected before allocation.
	buf := bytes.NewBuffer([]byte{0xFF, 0xFF, 0xFF, 0xFF, TypePing, 0, 0, 0, 1})
	if _, _, _, err := ReadMuxFrame(buf); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("got %v", err)
	}
}

func TestFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMuxFrame(&buf, TypeSegmentResponse, 1, []byte("data")); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	for _, cut := range []int{len(frame) - 2, muxHdrLen - 2} { // mid-payload, mid-header
		if _, _, _, err := ReadMuxFrame(bytes.NewReader(frame[:cut])); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("frame cut at %d: %v", cut, err)
		}
	}
	if _, _, _, err := ReadMuxFrame(bytes.NewReader(nil)); !errors.Is(err, io.EOF) {
		t.Fatalf("empty stream: %v", err)
	}
}

func TestSegmentRequestRoundTrip(t *testing.T) {
	f := func(fileID string, index uint64) bool {
		if len(fileID) > 65535 {
			fileID = fileID[:65535]
		}
		m := SegmentRequest{FileID: fileID, Index: index}
		id, got, err := SplitSegmentRequest(m.Encode())
		return err == nil && string(id) == m.FileID && got == m.Index
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestSegmentRequestEncodingPinned: u16 id length ‖ id ‖ u64 index, from
// Encode and from Append alike — the bytes every deployed prover parses.
func TestSegmentRequestEncodingPinned(t *testing.T) {
	req := SegmentRequest{FileID: "tcp-file", Index: 0x0102030405060708}
	want := []byte{0, 8, 't', 'c', 'p', '-', 'f', 'i', 'l', 'e', 1, 2, 3, 4, 5, 6, 7, 8}
	if got := req.Encode(); !bytes.Equal(got, want) {
		t.Fatalf("Encode = %x, want %x", got, want)
	}
	if got := req.Append([]byte{0xEE}); !bytes.Equal(got[1:], want) || got[0] != 0xEE {
		t.Fatalf("Append = %x, want ee ‖ %x", got, want)
	}
	if req.EncodedLen() != len(want) {
		t.Fatalf("EncodedLen = %d, want %d", req.EncodedLen(), len(want))
	}
	id, index, err := SplitSegmentRequest(want)
	if err != nil || string(id) != req.FileID || index != req.Index {
		t.Fatalf("SplitSegmentRequest = %q, %#x, %v", id, index, err)
	}
}

func TestSegmentRequestMalformed(t *testing.T) {
	cases := [][]byte{
		nil,
		{0},
		{0, 5, 1, 2},            // claims 5-byte id, too short
		{0, 0, 1, 2, 3},         // 5 trailing bytes, not 8
		{0, 1, 'a', 1, 2, 3, 4}, // id present but short index
	}
	for i, b := range cases {
		if _, _, err := SplitSegmentRequest(b); !errors.Is(err, ErrMalformed) {
			t.Errorf("case %d: %v", i, err)
		}
	}
}

func TestErrorMessage(t *testing.T) {
	err := DecodeErrorMessage(ErrorMessage{Msg: "boom"}.Encode())
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("got %v", err)
	}
	if err.Error() != "wire: remote error: boom" {
		t.Fatalf("message %q", err.Error())
	}
}

func TestMultipleFramesSequential(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 10; i++ {
		if err := WriteMuxFrame(&buf, byte(i%3+1), uint32(i+1), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		typ, stream, payload, err := ReadMuxFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if typ != byte(i%3+1) || stream != uint32(i+1) || payload[0] != byte(i) {
			t.Fatalf("frame %d: typ=%d stream=%d payload=%v", i, typ, stream, payload)
		}
		PutBuffer(payload)
	}
}
