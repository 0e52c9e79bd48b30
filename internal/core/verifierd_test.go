package core

import (
	"bytes"
	"context"
	"errors"
	"math"
	"net"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cloud"
	"repro/internal/crypt"
	"repro/internal/geo"
	"repro/internal/gps"
	"repro/internal/wire"
)

func TestTranscriptCodecRoundTrip(t *testing.T) {
	tr := Transcript{
		FileID:   "tenant/db",
		Nonce:    []byte{1, 2, 3, 4},
		Position: geo.Brisbane,
		Rounds: []AuditRound{
			{Index: 5, Segment: []byte{9, 8, 7}, RTT: 13 * time.Millisecond},
			{Index: 6, Failed: true, RTT: time.Millisecond},
			{Index: 7, Segment: []byte{}, RTT: 0},
		},
	}
	got, err := UnmarshalTranscript(tr.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Marshal(), tr.Marshal()) {
		t.Fatal("re-marshal differs: signatures would break across the wire")
	}
	if got.FileID != tr.FileID || !bytes.Equal(got.Nonce, tr.Nonce) || len(got.Rounds) != 3 {
		t.Fatalf("fields lost: %+v", got)
	}
	if math.Abs(got.Position.LatDeg-tr.Position.LatDeg) > 1e-6 {
		t.Fatalf("position drifted: %v", got.Position)
	}
	if !got.Rounds[1].Failed || got.Rounds[1].RTT != time.Millisecond {
		t.Fatalf("round 1 wrong: %+v", got.Rounds[1])
	}
}

func TestTranscriptCodecRejectsGarbage(t *testing.T) {
	tr := Transcript{FileID: "f", Nonce: []byte{1}, Rounds: []AuditRound{{Index: 1}}}
	good := tr.Marshal()
	for _, bad := range [][]byte{
		nil,
		{1, 2, 3},
		good[:len(good)-1],
		append(append([]byte{}, good...), 0xFF),
	} {
		if _, err := UnmarshalTranscript(bad); err == nil {
			t.Fatalf("garbage of %d bytes accepted", len(bad))
		}
	}
	// Absurd round count must fail fast, not allocate.
	huge := []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := UnmarshalTranscript(huge); err == nil {
		t.Fatal("absurd round count accepted")
	}
}

func TestAuditRequestCodecRoundTrip(t *testing.T) {
	f := func(fileID string, n uint32, k uint8, nonce []byte) bool {
		if fileID == "" || n == 0 || len(nonce) == 0 {
			return true
		}
		kk := int(k)%int(n) + 1
		req := AuditRequest{FileID: fileID, NumSegments: int64(n), K: kk, Nonce: nonce}
		got, err := DecodeAuditRequest(EncodeAuditRequest(req))
		return err == nil && got.FileID == req.FileID && got.NumSegments == req.NumSegments &&
			got.K == req.K && bytes.Equal(got.Nonce, req.Nonce)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeAuditRequest([]byte{1}); err == nil {
		t.Fatal("short request accepted")
	}
	// Invalid semantic content (k=0) must be rejected at decode.
	bad := EncodeAuditRequest(AuditRequest{FileID: "f", NumSegments: 10, K: 0, Nonce: []byte{1}})
	if _, err := DecodeAuditRequest(bad); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestSignedTranscriptCodec(t *testing.T) {
	st := SignedTranscript{
		Transcript: Transcript{FileID: "f", Nonce: []byte{1}, Position: geo.Sydney,
			Rounds: []AuditRound{{Index: 2, Segment: []byte{5}, RTT: time.Millisecond}}},
		Signature: []byte{0xDE, 0xAD},
	}
	got, err := DecodeSignedTranscript(EncodeSignedTranscript(st))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Signature, st.Signature) || got.Transcript.FileID != "f" {
		t.Fatalf("round trip lost data: %+v", got)
	}
	if _, err := DecodeSignedTranscript([]byte{0, 0}); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestThreePartyDistributedAudit runs prover, verifier daemon and TPA as
// three separate TCP endpoints on loopback — the full Fig. 4 deployment.
func TestThreePartyDistributedAudit(t *testing.T) {
	enc, ef, site := tcpFixture(t)

	// Prover daemon.
	proverAddr, stopProver := startServer(t, &cloud.HonestProvider{Site: site}, false)
	defer stopProver()

	// Verifier daemon wired to the prover.
	signer, err := crypt.NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	verifier, err := NewVerifier(signer, &gps.Receiver{True: geo.Brisbane}, nil)
	if err != nil {
		t.Fatal(err)
	}
	vs := &VerifierServer{
		Verifier: verifier,
		Dial: func() (ProverConn, error) {
			return DialMuxProver(proverAddr, time.Second)
		},
	}
	vlis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	vdone := make(chan struct{})
	go func() {
		defer close(vdone)
		_ = vs.Serve(vlis)
	}()
	defer func() {
		_ = vs.Close()
		<-vdone
	}()

	// TPA connects to the verifier daemon only.
	policy := DefaultPolicy(cloud.SLA{Center: geo.Brisbane, RadiusKm: 100})
	policy.TMax = 250 * time.Millisecond
	tpa, err := NewTPA(enc, signer.Public(), policy)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := DialVerifier(vlis.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	req, err := tpa.NewRequest(ef.FileID, ef.Layout, 8)
	if err != nil {
		t.Fatal(err)
	}
	st, err := remote.RunAudit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	rep := tpa.VerifyAudit(req, ef.Layout, st)
	if !rep.Accepted {
		t.Fatalf("distributed audit rejected: %s", rep.Reason())
	}
	if rep.SegmentsOK != 8 {
		t.Fatalf("segments ok %d", rep.SegmentsOK)
	}

	// A second audit over the same TPA connection.
	req2, _ := tpa.NewRequest(ef.FileID, ef.Layout, 4)
	st2, err := remote.RunAudit(context.Background(), req2)
	if err != nil {
		t.Fatal(err)
	}
	if rep2 := tpa.VerifyAudit(req2, ef.Layout, st2); !rep2.Accepted {
		t.Fatalf("second audit rejected: %s", rep2.Reason())
	}
}

func TestVerifierServerRejectsBadRequest(t *testing.T) {
	signer, _ := crypt.NewSigner()
	verifier, _ := NewVerifier(signer, &gps.Receiver{True: geo.Brisbane}, nil)
	vs := &VerifierServer{
		Verifier: verifier,
		Dial:     func() (ProverConn, error) { return nil, wire.ErrRemote },
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); _ = vs.Serve(lis) }()
	defer func() { _ = vs.Close(); <-done }()

	conn, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Malformed request payload.
	if err := wire.WriteFrame(conn, wire.TypeAuditRequest, []byte{1, 2}); err != nil {
		t.Fatal(err)
	}
	typ, _, err := wire.ReadFrame(conn)
	if err != nil || typ != wire.TypeError {
		t.Fatalf("typ=%d err=%v", typ, err)
	}
	// Valid request but prover unreachable.
	req := AuditRequest{FileID: "f", NumSegments: 10, K: 2, Nonce: []byte{1}}
	if err := wire.WriteFrame(conn, wire.TypeAuditRequest, EncodeAuditRequest(req)); err != nil {
		t.Fatal(err)
	}
	typ, _, err = wire.ReadFrame(conn)
	if err != nil || typ != wire.TypeError {
		t.Fatalf("typ=%d err=%v", typ, err)
	}
	// Unknown frame type.
	if err := wire.WriteFrame(conn, 42, nil); err != nil {
		t.Fatal(err)
	}
	typ, _, err = wire.ReadFrame(conn)
	if err != nil || typ != wire.TypeError {
		t.Fatalf("typ=%d err=%v", typ, err)
	}
}

func TestRemoteVerifierCancelUnblocksAndDesyncs(t *testing.T) {
	// An audit shipped to a daemon that never answers must return promptly
	// on ctx cancellation (deadline poke) and latch the desync.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		for {
			c, err := lis.Accept()
			if err != nil {
				return
			}
			defer c.Close() // accept and stay silent
		}
	}()
	raw, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	remote := &RemoteVerifier{conn: raw}
	defer remote.Close()
	req := AuditRequest{FileID: "f", NumSegments: 8, K: 2, Nonce: []byte("nonce")}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := remote.RunAudit(ctx, req); err == nil {
		t.Fatal("audit against a silent daemon succeeded")
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("cancelled audit took %v", el)
	}
	if remote.Healthy() {
		t.Fatal("abandoned audit left conn marked healthy")
	}
	if _, err := remote.RunAudit(context.Background(), req); !errors.Is(err, ErrConnDesynced) {
		t.Fatalf("audit on desynced conn: %v", err)
	}
}
