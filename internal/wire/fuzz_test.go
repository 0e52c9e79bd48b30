package wire

import (
	"bufio"
	"bytes"
	"testing"
)

// Fuzz targets guard the parsers that consume attacker-controlled bytes.
// Under plain `go test` they run their seed corpus; `go test -fuzz=...`
// explores further.

func FuzzDecodeSegmentRequest(f *testing.F) {
	f.Add(SegmentRequest{FileID: "file", Index: 7}.Encode())
	f.Add([]byte{})
	f.Add([]byte{0, 200, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		id, index, err := SplitSegmentRequest(data)
		if err != nil {
			return
		}
		if req := (SegmentRequest{FileID: string(id), Index: index}); !bytes.Equal(req.Encode(), data) {
			t.Fatal("decode/encode not canonical")
		}
	})
}

// FuzzReadMuxFrame guards the frame header parser: arbitrary bytes never
// panic, and whatever parses must round-trip through the writer
// bit-exactly (header and stream id included).
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
	f.Add(uint8(0), Hello{MaxVersion: MuxVersion}.Encode()) // 6 bytes: magic ‖ u16
	f.Add(uint8(1), HelloAck{Version: MuxVersion}.Encode()) // 2 bytes: u16
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
