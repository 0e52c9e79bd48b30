package wire

import (
	"bufio"
	"bytes"
	"testing"
)

// Fuzz targets guard the parsers that consume attacker-controlled bytes.
// Under plain `go test` they run their seed corpus; `go test -fuzz=...`
// explores further.

func FuzzReadFrame(f *testing.F) {
	var buf bytes.Buffer
	_ = WriteFrame(&buf, TypeSegmentRequest, []byte("seed"))
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1})
	f.Add([]byte{0, 0, 0, 2, 9, 'a'})
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Whatever parsed must re-serialise to a parseable frame.
		var out bytes.Buffer
		if werr := WriteFrame(&out, typ, payload); werr != nil {
			t.Fatalf("reserialise: %v", werr)
		}
		typ2, payload2, err2 := ReadFrame(&out)
		if err2 != nil || typ2 != typ || !bytes.Equal(payload2, payload) {
			t.Fatalf("round trip diverged: %v", err2)
		}
	})
}

func FuzzDecodeSegmentRequest(f *testing.F) {
	f.Add(SegmentRequest{FileID: "file", Index: 7}.Encode())
	f.Add([]byte{})
	f.Add([]byte{0, 200, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeSegmentRequest(data)
		if err != nil {
			return
		}
		if !bytes.Equal(req.Encode(), data) {
			t.Fatal("decode/encode not canonical")
		}
	})
}

// FuzzReadMuxFrame guards the v2 header parser the same way
// FuzzReadFrame guards v1: arbitrary bytes never panic, and whatever
// parses must round-trip through the writer bit-exactly (header and
// stream id included).
func FuzzReadMuxFrame(f *testing.F) {
	var buf bytes.Buffer
	_ = WriteMuxFrame(&buf, TypeSegmentRequest, 42, []byte("seed"))
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 0, 0, 0, 1})
	f.Add([]byte{0, 0, 0, 1, 10, 0, 0, 0, 7, 'x'})
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, stream, payload, err := ReadMuxFrame(bytes.NewReader(data))
		// The verifier's reader must take and refuse exactly the same bytes.
		otyp, ostream, owned, oerr := ReadMuxFrameOwned(bufio.NewReader(bytes.NewReader(data)))
		if (err == nil) != (oerr == nil) {
			t.Fatalf("ReadMuxFrame: %v, ReadMuxFrameOwned: %v", err, oerr)
		}
		if err != nil {
			return
		}
		if otyp != typ || ostream != stream || !bytes.Equal(owned, payload) {
			t.Fatalf("ReadMuxFrameOwned read type %d stream %d %x, ReadMuxFrame type %d stream %d %x", otyp, ostream, owned, typ, stream, payload)
		}
		var out bytes.Buffer
		if werr := WriteMuxFrame(&out, typ, stream, payload); werr != nil {
			t.Fatalf("reserialise: %v", werr)
		}
		typ2, stream2, payload2, err2 := ReadMuxFrame(&out)
		if err2 != nil || typ2 != typ || stream2 != stream || !bytes.Equal(payload2, payload) {
			t.Fatalf("round trip diverged: %v", err2)
		}
		PutBuffer(payload)
		PutBuffer(payload2)
	})
}

// FuzzMuxPayloads drives both handshake payload decoders (Hello,
// HelloAck) over arbitrary bytes: no panics, and anything accepted must
// re-encode canonically.
func FuzzMuxPayloads(f *testing.F) {
	f.Add(uint8(0), Hello{MaxVersion: MuxVersion, Features: FeatureBatchSign}.Encode())
	f.Add(uint8(1), HelloAck{Version: MuxVersion}.Encode())
	f.Add(uint8(0), []byte("GPMX"))
	f.Add(uint8(1), []byte{0, 2, 0})
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		if which%2 == 0 {
			h, err := DecodeHello(data)
			if err == nil && !bytes.Equal(h.Encode(), data) {
				t.Fatal("hello decode/encode not canonical")
			}
			return
		}
		a, err := DecodeHelloAck(data)
		if err == nil && !bytes.Equal(a.Encode(), data) {
			t.Fatal("hello ack decode/encode not canonical")
		}
	})
}
