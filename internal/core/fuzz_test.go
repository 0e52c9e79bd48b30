package core

import (
	"bytes"
	"context"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/merkle"
	"repro/internal/wire"
)

func FuzzUnmarshalTranscript(f *testing.F) {
	seed := Transcript{
		FileID:   "f",
		Nonce:    []byte{1, 2},
		Position: geo.Brisbane,
		Rounds:   []AuditRound{{Index: 3, Segment: []byte{4}, RTT: time.Millisecond}},
	}
	f.Add(seed.Marshal())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 'x'})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := UnmarshalTranscript(data)
		if err != nil {
			return
		}
		// Canonical: anything that parses must re-marshal to the same
		// bytes (signatures depend on this).
		if !bytes.Equal(tr.Marshal(), data) {
			t.Fatal("parsed transcript is not canonical")
		}
	})
}

func FuzzDecodeAuditRequest(f *testing.F) {
	f.Add(EncodeAuditRequest(AuditRequest{FileID: "f", NumSegments: 10, K: 2, Nonce: []byte{1}}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeAuditRequest(data)
		if err != nil {
			return
		}
		if err := req.Validate(); err != nil {
			t.Fatalf("decoder returned invalid request: %v", err)
		}
		if !bytes.Equal(EncodeAuditRequest(req), data) {
			t.Fatal("request decode/encode not canonical")
		}
	})
}

func FuzzDecodeSignedTranscript(f *testing.F) {
	st := SignedTranscript{
		Transcript: Transcript{FileID: "f", Nonce: []byte{1}, Rounds: []AuditRound{{Index: 1}}},
		Signature:  []byte{9},
	}
	f.Add(EncodeSignedTranscript(st))
	f.Add(EncodeSignedTranscript(SignedTranscript{
		Transcript: st.Transcript,
		Batch: &BatchAttestation{
			Root:    merkle.LeafHash([]byte{1}),
			RootSig: []byte{7, 7},
			Proof:   merkle.Proof{Index: 1, Steps: []merkle.ProofStep{{Left: true}}},
		},
	}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeSignedTranscript(data)
		if err != nil {
			return
		}
		if !bytes.Equal(EncodeSignedTranscript(got), data) {
			t.Fatal("signed transcript decode/encode not canonical")
		}
	})
}

// FuzzBatchAttestation fuzzes the inclusion-proof wire codec the batch
// attestation rides in: anything that decodes must re-encode to the
// identical bytes, and the decoded proof must stay within the step
// bound the decoder promises.
func FuzzBatchAttestation(f *testing.F) {
	att := BatchAttestation{
		Root:    merkle.LeafHash([]byte("root")),
		RootSig: []byte{1, 2, 3},
		Proof: merkle.Proof{Index: 5, Steps: []merkle.ProofStep{
			{Sibling: merkle.LeafHash([]byte("sib")), Left: true},
			{Sibling: merkle.LeafHash([]byte("sib2"))},
		}},
	}
	f.Add(EncodeBatchAttestation(att))
	f.Add(EncodeBatchAttestation(BatchAttestation{}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeBatchAttestation(data)
		if err != nil {
			return
		}
		if len(got.Proof.Steps) > maxProofSteps {
			t.Fatalf("decoder admitted %d proof steps", len(got.Proof.Steps))
		}
		if !bytes.Equal(EncodeBatchAttestation(got), data) {
			t.Fatal("attestation decode/encode not canonical")
		}
	})
}

// writeCut writes b in pieces: cuts, taken cyclically, gives each piece's
// length, and a zero (or no cuts at all) sends whatever is left in one
// write.
func writeCut(w io.Writer, b, cuts []byte) error {
	for i := 0; len(b) > 0; i++ {
		n := len(b)
		if len(cuts) > 0 {
			if c := int(cuts[i%len(cuts)]); c > 0 && c < n {
				n = c
			}
		}
		if _, err := w.Write(b[:n]); err != nil {
			return err
		}
		b = b[n:]
	}
	return nil
}

// FuzzMuxDemux feeds the verifier's demux the reply byte stream for n
// outstanding streams, cut into writes wherever the fuzzer likes — inside
// a header, inside a payload, several replies to a write — across a
// net.Pipe, where every write is exactly one read. Every stream must
// receive exactly its own payload; a trailing reply for a stream nobody
// opened, or a header announcing more than wire.MaxFrame, must still fail
// the connection.
func FuzzMuxDemux(f *testing.F) {
	f.Add(uint8(4), []byte{1}, uint8(0))             // one byte at a time
	f.Add(uint8(4), []byte{}, uint8(0))              // everything in one write
	f.Add(uint8(3), []byte{4, 0}, uint8(0))          // a cut inside the first header
	f.Add(uint8(8), []byte{9, 83, 1, 200}, uint8(1)) // header alone, payload alone; then an unknown stream
	f.Add(uint8(6), []byte{255, 255, 7}, uint8(2))   // a payload longer than the read buffer; then an oversized header
	f.Add(uint8(16), []byte{13, 5, 92, 9}, uint8(1)) // frames straddling every write
	f.Fuzz(func(t *testing.T, n uint8, cuts []byte, tail uint8) {
		streams := int(n%16) + 1
		client, server := net.Pipe()
		conn := NewMuxProverConn(client)
		defer func() { conn.Close(); server.Close() }()
		if err := server.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
			t.Fatal(err)
		}

		// Stream i is owed a payload only it can have; the sizes run from
		// empty to one longer than the demux's read buffer.
		want := func(i int) []byte {
			size := (i * 53) % 300
			if i == 5 {
				size = muxReadBuf + 100
			}
			return bytes.Repeat([]byte{byte(i + 1)}, size)
		}
		type result struct {
			i   int
			seg []byte
			err error
		}
		results := make(chan result, streams)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second) // a lost reply fails, not hangs
		defer cancel()
		for i := 0; i < streams; i++ {
			go func(i int) {
				seg, err := conn.GetSegment(ctx, "f", uint64(i))
				results <- result{i, seg, err}
			}(i)
		}
		ids := make([]uint32, streams) // stream ID by requested index
		for range ids {
			_, stream, payload, err := wire.ReadMuxFrame(server)
			if err != nil {
				t.Fatal(err)
			}
			_, index, err := wire.SplitSegmentRequest(payload)
			wire.PutBuffer(payload)
			if err != nil || index >= uint64(streams) {
				t.Fatalf("request for segment %d: %v", index, err)
			}
			ids[index] = stream
		}
		var replies []byte
		for i := streams - 1; i >= 0; i-- { // not the order they were asked in
			var err error
			if replies, err = wire.AppendMuxFrame(replies, wire.TypeSegmentResponse, ids[i], want(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := writeCut(server, replies, cuts); err != nil {
			t.Fatal(err)
		}
		for range ids {
			r := <-results
			if r.err != nil || !bytes.Equal(r.seg, want(r.i)) {
				t.Fatalf("stream %d received %d bytes (%v), want %d", r.i, len(r.seg), r.err, len(want(r.i)))
			}
		}
		if !conn.Healthy() {
			t.Fatal("clean replies failed the connection")
		}

		var bad []byte
		switch tail % 3 {
		case 0:
			return
		case 1:
			bad, _ = wire.AppendMuxFrame(nil, wire.TypeSegmentResponse, 0xFFFF0000, []byte("stray"))
		case 2:
			bad = []byte{0x01, 0x00, 0x00, 0x01, wire.TypeSegmentResponse, 0, 0, 0, 1} // MaxFrame + 1 bytes to follow
		}
		_ = writeCut(server, bad, cuts) // the demux may hang up before the last piece
		<-conn.rdone
		if conn.Healthy() {
			t.Fatalf("connection survived tail %d", tail%3)
		}
		if _, err := conn.GetSegment(context.Background(), "f", 0); err == nil {
			t.Fatal("exchange on a failed connection succeeded")
		}
	})
}
