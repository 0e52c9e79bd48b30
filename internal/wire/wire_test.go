package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello geoproof")
	if err := WriteFrame(&buf, TypeSegmentRequest, payload); err != nil {
		t.Fatal(err)
	}
	typ, got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != TypeSegmentRequest || !bytes.Equal(got, payload) {
		t.Fatalf("typ=%d payload=%q", typ, got)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, TypePing, nil); err != nil {
		t.Fatal(err)
	}
	typ, got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != TypePing || len(got) != 0 {
		t.Fatalf("typ=%d len=%d", typ, len(got))
	}
}

func TestFrameTooLargeWrite(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, TypePing, make([]byte, MaxFrame+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("got %v", err)
	}
}

func TestFrameTooLargeRead(t *testing.T) {
	// Header claiming a huge payload must be rejected before allocation.
	buf := bytes.NewBuffer([]byte{0xFF, 0xFF, 0xFF, 0xFF, TypePing})
	if _, _, err := ReadFrame(buf); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("got %v", err)
	}
}

func TestFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, TypeSegmentResponse, []byte("data")); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-2]
	if _, _, err := ReadFrame(bytes.NewReader(trunc)); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("got %v", err)
	}
	if _, _, err := ReadFrame(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty stream accepted")
	}
}

func TestSegmentRequestRoundTrip(t *testing.T) {
	f := func(fileID string, index uint64) bool {
		if len(fileID) > 65535 {
			fileID = fileID[:65535]
		}
		m := SegmentRequest{FileID: fileID, Index: index}
		got, err := DecodeSegmentRequest(m.Encode())
		return err == nil && got.FileID == m.FileID && got.Index == m.Index
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
		if _, err := DecodeSegmentRequest(b); !errors.Is(err, ErrMalformed) {
			t.Errorf("case %d: %v", i, err)
		}
	}
}

func TestSegmentResponseRoundTrip(t *testing.T) {
	m := SegmentResponse{Data: []byte{1, 2, 3}}
	got, err := DecodeSegmentResponse(m.Encode())
	if err != nil || !bytes.Equal(got.Data, m.Data) {
		t.Fatalf("got %v err %v", got, err)
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
		if err := WriteFrame(&buf, byte(i%3+1), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		typ, payload, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if typ != byte(i%3+1) || payload[0] != byte(i) {
			t.Fatalf("frame %d: typ=%d payload=%v", i, typ, payload)
		}
	}
}
