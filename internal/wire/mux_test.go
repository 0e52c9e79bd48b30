package wire

import (
	"bufio"
	"bytes"
	"errors"
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
	h := Hello{MaxVersion: MuxVersion}
	got, err := DecodeHello(h.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("got %+v want %+v", got, h)
	}
	for _, bad := range [][]byte{nil, []byte("GPMX"), []byte("NOPE12"), append(h.Encode(), 0)} {
		if _, err := DecodeHello(bad); err == nil {
			t.Fatalf("bad hello %q accepted", bad)
		}
	}
}

func TestHelloAckRoundTrip(t *testing.T) {
	a := HelloAck{Version: MuxVersion}
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

// TestReadFramePooled: the payload ReadMuxFrame returns is a pool buffer,
// which is why its caller must hand it back.
func TestReadFramePooled(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMuxFrame(&buf, TypeSegmentResponse, 9, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	typ, _, p, err := ReadMuxFrame(&buf)
	if err != nil || typ != TypeSegmentResponse || string(p) != "payload" {
		t.Fatalf("typ=%d p=%q err=%v", typ, p, err)
	}
	if cap(p) != poolBufCap {
		t.Fatalf("payload cap %d, want the pool's %d", cap(p), poolBufCap)
	}
	PutBuffer(p)
}

// TestBufferPoolRoundTripAllocatesNothing: the pool exists so that a
// frame costs no allocation, and a Put that boxes the slice header on the
// heap (as bufPool.Put(&b) did) defeats it on every frame. Covers the
// bare Get/Put pair and the pooled frame read built on it.
func TestBufferPoolRoundTripAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	PutBuffer(GetBuffer(100)) // warm the pool
	if n := testing.AllocsPerRun(200, func() { PutBuffer(GetBuffer(100)) }); n != 0 {
		t.Fatalf("GetBuffer + PutBuffer allocates %.1f objects per round trip", n)
	}
	frame, err := AppendMuxFrame(nil, TypeSegmentResponse, 7, bytes.Repeat([]byte{0xAB}, 83))
	if err != nil {
		t.Fatal(err)
	}
	var rd bytes.Reader
	if n := testing.AllocsPerRun(200, func() {
		rd.Reset(frame)
		_, _, p, err := ReadMuxFrame(&rd)
		if err != nil {
			t.Fatal(err)
		}
		PutBuffer(p)
	}); n != 0 {
		t.Fatalf("ReadMuxFrame + PutBuffer allocates %.1f objects per frame", n)
	}
}

// TestReadMuxFrameOwned: the payload is a fresh slice of exactly the
// frame's size however the frames are packed into the reader's buffer,
// and a cut or oversized header reports what ReadMuxFrame reports.
func TestReadMuxFrameOwned(t *testing.T) {
	var stream []byte
	payloads := [][]byte{[]byte("first"), {}, bytes.Repeat([]byte{7}, 300)}
	for i, p := range payloads {
		var err error
		if stream, err = AppendMuxFrame(stream, TypeSegmentResponse, uint32(i+1), p); err != nil {
			t.Fatal(err)
		}
	}
	// A 16-byte buffer forces the long payload past the buffer, straight
	// into its destination.
	br := bufio.NewReaderSize(bytes.NewReader(stream), 16)
	for i, want := range payloads {
		typ, id, got, err := ReadMuxFrameOwned(br)
		if err != nil || typ != TypeSegmentResponse || id != uint32(i+1) || !bytes.Equal(got, want) {
			t.Fatalf("frame %d: typ=%d stream=%d payload=%q err=%v", i, typ, id, got, err)
		}
		if cap(got) != len(want) {
			t.Fatalf("frame %d: payload cap %d for %d bytes", i, cap(got), len(want))
		}
	}
	if _, _, _, err := ReadMuxFrameOwned(br); !errors.Is(err, io.EOF) {
		t.Fatalf("end of stream: %v", err)
	}
	cut := bufio.NewReader(bytes.NewReader(stream[:4]))
	if _, _, _, err := ReadMuxFrameOwned(cut); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("cut header: %v", err)
	}
	short := bufio.NewReader(bytes.NewReader(stream[:muxHdrLen+2]))
	if _, _, _, err := ReadMuxFrameOwned(short); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("cut payload: %v", err)
	}
	huge := bufio.NewReader(bytes.NewReader([]byte{0xFF, 0xFF, 0xFF, 0xFF, 2, 0, 0, 0, 1}))
	if _, _, _, err := ReadMuxFrameOwned(huge); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized header: %v", err)
	}
}

// BenchmarkWireFrameRoundTrip writes and reads back one mux frame carrying
// a default 83-byte segment.
func BenchmarkWireFrameRoundTrip(b *testing.B) {
	payload := bytes.Repeat([]byte{0x5a}, 83)
	var buf bytes.Buffer
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := WriteMuxFrame(&buf, TypeSegmentResponse, 1, payload); err != nil {
			b.Fatal(err)
		}
		_, _, p, err := ReadMuxFrame(&buf)
		if err != nil {
			b.Fatal(err)
		}
		PutBuffer(p)
	}
}
