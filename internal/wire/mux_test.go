package wire

import (
	"bytes"
	"io"
	"testing"
)

func TestMuxFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("seg"), 100)}
	for i, p := range payloads {
		if err := WriteMuxFrame(&buf, byte(i+1), uint32(1000+i), p); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range payloads {
		typ, stream, got, err := ReadMuxFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if typ != byte(i+1) || stream != uint32(1000+i) || !bytes.Equal(got, p) {
			t.Fatalf("frame %d: typ=%d stream=%d payload %q", i, typ, stream, got)
		}
		PutBuffer(got)
	}
}

func TestMuxFrameTooLarge(t *testing.T) {
	var hdr [muxHdrLen]byte
	hdr[0], hdr[1], hdr[2], hdr[3] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, _, _, err := ReadMuxFrame(bytes.NewReader(hdr[:])); err == nil {
		t.Fatal("oversized mux frame accepted")
	}
	big := make([]byte, MaxFrame+1)
	if err := WriteMuxFrame(io.Discard, TypeSegmentResponse, 1, big); err == nil {
		t.Fatal("oversized mux write accepted")
	}
}

func TestAppendMuxFrameCoalesces(t *testing.T) {
	// Two frames appended to one buffer must parse back identically —
	// the writer-coalescing fast path.
	buf, err := AppendMuxFrame(nil, TypeSegmentRequest, 7, []byte("a"))
	if err != nil {
		t.Fatal(err)
	}
	buf, err = AppendMuxFrame(buf, TypeSegmentResponse, 8, []byte("bb"))
	if err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(buf)
	typ, stream, p, err := ReadMuxFrame(r)
	if err != nil || typ != TypeSegmentRequest || stream != 7 || string(p) != "a" {
		t.Fatalf("first frame: %d %d %q %v", typ, stream, p, err)
	}
	PutBuffer(p)
	typ, stream, p, err = ReadMuxFrame(r)
	if err != nil || typ != TypeSegmentResponse || stream != 8 || string(p) != "bb" {
		t.Fatalf("second frame: %d %d %q %v", typ, stream, p, err)
	}
	PutBuffer(p)
	if r.Len() != 0 {
		t.Fatalf("%d trailing bytes", r.Len())
	}
}

func TestHelloRoundTrip(t *testing.T) {
	h := Hello{MaxVersion: MuxVersion, Features: FeatureBatchSign}
	got, err := DecodeHello(h.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("got %+v want %+v", got, h)
	}
	for _, bad := range [][]byte{nil, []byte("GPMX"), []byte("NOPE123456"), append(h.Encode(), 0)} {
		if _, err := DecodeHello(bad); err == nil {
			t.Fatalf("bad hello %q accepted", bad)
		}
	}
}

func TestHelloAckRoundTrip(t *testing.T) {
	a := HelloAck{Version: MuxVersion, Features: FeatureBatchSign}
	got, err := DecodeHelloAck(a.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got != a {
		t.Fatalf("got %+v want %+v", got, a)
	}
	if _, err := DecodeHelloAck([]byte{1, 2, 3}); err == nil {
		t.Fatal("short ack accepted")
	}
}

func TestBufferPoolRecycles(t *testing.T) {
	b := GetBuffer(100)
	if len(b) != 100 || cap(b) != poolBufCap {
		t.Fatalf("len=%d cap=%d", len(b), cap(b))
	}
	PutBuffer(b)
	big := GetBuffer(poolBufCap + 1)
	if len(big) != poolBufCap+1 {
		t.Fatalf("big len=%d", len(big))
	}
	PutBuffer(big) // must not enter the pool
	again := GetBuffer(8)
	if cap(again) != poolBufCap {
		t.Fatalf("oversized buffer entered the pool: cap=%d", cap(again))
	}
}

func TestReadFramePooled(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, TypeSegmentResponse, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	typ, p, err := ReadFramePooled(&buf)
	if err != nil || typ != TypeSegmentResponse || string(p) != "payload" {
		t.Fatalf("typ=%d p=%q err=%v", typ, p, err)
	}
	PutBuffer(p)
}
