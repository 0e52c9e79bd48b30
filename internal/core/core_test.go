package core

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/crypt"
	"repro/internal/disk"
	"repro/internal/geo"
	"repro/internal/gps"
	"repro/internal/por"
	"repro/internal/simnet"
	"repro/internal/vclock"
)

// fixture wires a full simulated deployment: owner, encoded file, a
// Brisbane data centre, verifier device on the provider LAN, and a TPA.
type fixture struct {
	enc      *por.Encoder
	file     []byte
	ef       *por.EncodedFile
	site     *cloud.Site
	net      *simnet.Network
	verifier *Verifier
	tpa      *TPA
	conn     *MuxProverConn
}

const testFileID = "tenant-42/records.db"

func newFixture(t *testing.T, provider cloud.Provider) *fixture {
	t.Helper()
	enc := por.NewEncoder([]byte("owner-master-secret"))
	file := bytes.Repeat([]byte("GeoProof integration payload "), 2000)
	ef, err := enc.Encode(testFileID, file)
	if err != nil {
		t.Fatal(err)
	}

	net, conn := simProver(t, provider, 42)
	signer, err := crypt.NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	receiver := &gps.Receiver{True: geo.Brisbane}
	verifier, err := NewVerifier(signer, receiver, net.Clock())
	if err != nil {
		t.Fatal(err)
	}

	sla := cloud.SLA{Center: geo.Brisbane, RadiusKm: 100}
	tpa, err := NewTPA(enc, signer.Public(), DefaultPolicy(sla))
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{
		enc: enc, file: file, ef: ef,
		net: net, verifier: verifier, tpa: tpa, conn: conn,
	}
}

// simProver puts provider behind a ProverServer on a fresh simulated
// network — node "prover" one LAN hop from node "verifier" — and returns the network and the verifier's pooled mux connection to it.
func simProver(t *testing.T, provider cloud.Provider, seed int64) (*simnet.Network, *MuxProverConn) {
	t.Helper()
	net := simnet.New(vclock.NewVirtual(time.Time{}), seed)
	// Verifier sits in the provider's LAN: §V-E says ≈1 ms RTT budget.
	net.SetLink("verifier", "prover", simnet.LANLink{
		DistanceKm: 0.5,
		Switches:   3,
		PerSwitch:  30 * time.Microsecond,
		Base:       100 * time.Microsecond,
	})
	lis, err := net.Listen("prover")
	if err != nil {
		t.Fatal(err)
	}
	srv := &ProverServer{Provider: provider, SimulateServiceTime: true}
	go srv.Serve(lis)
	pool := &ProverPool{Dial: net.Dialer("verifier")}
	t.Cleanup(func() {
		pool.Close()
		srv.Close()
	})
	conn, _, err := pool.Get("prover")
	if err != nil {
		t.Fatal(err)
	}
	return net, conn
}

func honestSite(t *testing.T, ef *por.EncodedFile) *cloud.Site {
	t.Helper()
	site := cloud.NewSite(cloud.DataCenter{
		Name:     "bne-dc1",
		Position: geo.Brisbane,
		Disk:     disk.WD2500JD,
	}, 7)
	site.Store(ef.FileID, ef.Layout, ef.Data)
	return site
}

// prepare encodes the shared test file once for provider construction.
func encodeTestFile(t *testing.T) (*por.Encoder, *por.EncodedFile) {
	t.Helper()
	enc := por.NewEncoder([]byte("owner-master-secret"))
	file := bytes.Repeat([]byte("GeoProof integration payload "), 2000)
	ef, err := enc.Encode(testFileID, file)
	if err != nil {
		t.Fatal(err)
	}
	return enc, ef
}

func TestHonestAuditAccepted(t *testing.T) {
	_, ef := encodeTestFile(t)
	site := honestSite(t, ef)
	fx := newFixture(t, &cloud.HonestProvider{Site: site})

	req, err := fx.tpa.NewRequest(testFileID, fx.ef.Layout, 20)
	if err != nil {
		t.Fatal(err)
	}
	st, err := fx.verifier.RunAudit(context.Background(), req, fx.conn)
	if err != nil {
		t.Fatal(err)
	}
	rep := fx.tpa.VerifyAudit(req, fx.ef.Layout, st)
	if !rep.Accepted {
		t.Fatalf("honest audit rejected: %s", rep.Reason())
	}
	if rep.SegmentsOK != 20 || rep.SegmentsBad != 0 || rep.FailedRounds != 0 {
		t.Fatalf("segments ok=%d bad=%d failed=%d", rep.SegmentsOK, rep.SegmentsBad, rep.FailedRounds)
	}
	// Honest RTT = LAN RTT (≈1 ms) + WD2500JD look-up (≈13.1 ms) < 16 ms.
	if rep.MaxRTT > 16*time.Millisecond {
		t.Fatalf("honest max RTT %v", rep.MaxRTT)
	}
	if rep.MaxRTT < 13*time.Millisecond {
		t.Fatalf("honest max RTT %v implausibly small", rep.MaxRTT)
	}
}

func TestRelayAttackRejectedOnTiming(t *testing.T) {
	_, ef := encodeTestFile(t)
	// Fig. 6: front in Brisbane, data in a Sydney DC with a faster disk.
	remote := cloud.NewSite(cloud.DataCenter{
		Name:     "syd-dc1",
		Position: geo.Sydney,
		Disk:     disk.IBM36Z15,
	}, 8)
	remote.Store(ef.FileID, ef.Layout, ef.Data)
	relay := cloud.NewRelayProvider(cloud.DataCenter{
		Name:     "bne-front",
		Position: geo.Brisbane,
		Disk:     disk.WD2500JD,
	}, remote, simnet.InternetLink{
		DistanceKm: geo.Brisbane.DistanceKm(geo.Sydney),
		LastMile:   simnet.DefaultLastMile,
	}, 9)
	fx := newFixture(t, relay)

	req, _ := fx.tpa.NewRequest(testFileID, fx.ef.Layout, 10)
	st, err := fx.verifier.RunAudit(context.Background(), req, fx.conn)
	if err != nil {
		t.Fatal(err)
	}
	rep := fx.tpa.VerifyAudit(req, fx.ef.Layout, st)
	if rep.Accepted {
		t.Fatal("relay attack accepted")
	}
	if rep.TimingOK {
		t.Fatalf("relay passed timing: max RTT %v", rep.MaxRTT)
	}
	// MACs still verify — the relay lies about place, not content.
	if !rep.MACsOK {
		t.Fatal("relayed content should still MAC-verify")
	}
	// The implied distance must reach at least toward Sydney (>400 km
	// after subtracting the look-up budget).
	if rep.ImpliedMaxDistanceKm < 400 {
		t.Fatalf("implied distance %.0f km", rep.ImpliedMaxDistanceKm)
	}
}

func TestCorruptedStorageRejectedByMACs(t *testing.T) {
	_, ef := encodeTestFile(t)
	site := honestSite(t, ef)
	if _, err := site.CorruptRandomSegments(testFileID, 0.5, 3); err != nil {
		t.Fatal(err)
	}
	fx := newFixture(t, &cloud.HonestProvider{Site: site})

	req, _ := fx.tpa.NewRequest(testFileID, fx.ef.Layout, 30)
	st, err := fx.verifier.RunAudit(context.Background(), req, fx.conn)
	if err != nil {
		t.Fatal(err)
	}
	rep := fx.tpa.VerifyAudit(req, fx.ef.Layout, st)
	if rep.Accepted {
		t.Fatal("audit of corrupted storage accepted")
	}
	if rep.MACsOK {
		t.Fatal("MAC check passed on 50% corruption with 30 samples (p≈1e-9)")
	}
	// Timing should still be fine — corruption is a different failure.
	if !rep.TimingOK {
		t.Fatal("timing should pass for local corrupted storage")
	}
}

func TestSpoofedGPSRejectedByPosition(t *testing.T) {
	_, ef := encodeTestFile(t)
	site := honestSite(t, ef)
	fx := newFixture(t, &cloud.HonestProvider{Site: site})

	// Provider moved the verifier device (or spoofed its GPS) to Perth.
	spoof := geo.Perth
	signer, _ := crypt.NewSigner()
	receiver := &gps.Receiver{True: geo.Perth, Spoof: &spoof}
	verifier, _ := NewVerifier(signer, receiver, fx.net.Clock())
	tpa, _ := NewTPA(fx.enc, signer.Public(), DefaultPolicy(cloud.SLA{Center: geo.Brisbane, RadiusKm: 100}))

	req, _ := tpa.NewRequest(testFileID, fx.ef.Layout, 5)
	st, err := verifier.RunAudit(context.Background(), req, fx.conn)
	if err != nil {
		t.Fatal(err)
	}
	rep := tpa.VerifyAudit(req, fx.ef.Layout, st)
	if rep.Accepted || rep.PositionOK {
		t.Fatalf("out-of-region verifier accepted: %+v", rep)
	}
}

func TestTamperedTranscriptRejectedBySignature(t *testing.T) {
	_, ef := encodeTestFile(t)
	site := honestSite(t, ef)
	fx := newFixture(t, &cloud.HonestProvider{Site: site})

	req, _ := fx.tpa.NewRequest(testFileID, fx.ef.Layout, 5)
	st, err := fx.verifier.RunAudit(context.Background(), req, fx.conn)
	if err != nil {
		t.Fatal(err)
	}
	// A cheating provider intercepts and rewrites an RTT downwards.
	st.Transcript.Rounds[0].RTT = time.Microsecond
	rep := fx.tpa.VerifyAudit(req, fx.ef.Layout, st)
	if rep.Accepted || rep.SignatureOK {
		t.Fatal("tampered transcript accepted")
	}
}

func TestReplayedTranscriptRejectedByNonce(t *testing.T) {
	_, ef := encodeTestFile(t)
	site := honestSite(t, ef)
	fx := newFixture(t, &cloud.HonestProvider{Site: site})

	req1, _ := fx.tpa.NewRequest(testFileID, fx.ef.Layout, 5)
	st1, err := fx.verifier.RunAudit(context.Background(), req1, fx.conn)
	if err != nil {
		t.Fatal(err)
	}
	// Replay the old transcript against a new request.
	req2, _ := fx.tpa.NewRequest(testFileID, fx.ef.Layout, 5)
	rep := fx.tpa.VerifyAudit(req2, fx.ef.Layout, st1)
	if rep.Accepted {
		t.Fatal("replayed transcript accepted")
	}
}

func TestDroppedRoundsWithinBudget(t *testing.T) {
	_, ef := encodeTestFile(t)
	site := honestSite(t, ef)
	fx := newFixture(t, &cloud.LossyProvider{Provider: &cloud.HonestProvider{Site: site}, P: 0.15, Rand: rand.New(rand.NewSource(42))})

	policy := fx.tpa.Policy()
	policy.MaxFailedRounds = 40
	tpa, _ := NewTPA(fx.enc, fx.verifier.Public().Public(), policy)

	req, _ := tpa.NewRequest(testFileID, fx.ef.Layout, 60)
	st, err := fx.verifier.RunAudit(context.Background(), req, fx.conn)
	if err != nil {
		t.Fatal(err)
	}
	rep := tpa.VerifyAudit(req, fx.ef.Layout, st)
	if rep.FailedRounds == 0 {
		t.Fatal("expected some dropped rounds at 15% loss")
	}
	if !rep.Accepted {
		t.Fatalf("audit rejected despite failure budget: %s", rep.Reason())
	}
}

func TestDroppedRoundsBeyondBudget(t *testing.T) {
	_, ef := encodeTestFile(t)
	site := honestSite(t, ef)
	fx := newFixture(t, &cloud.LossyProvider{Provider: &cloud.HonestProvider{Site: site}, P: 1, Rand: rand.New(rand.NewSource(42))})

	req, _ := fx.tpa.NewRequest(testFileID, fx.ef.Layout, 5)
	st, err := fx.verifier.RunAudit(context.Background(), req, fx.conn)
	if err != nil {
		t.Fatal(err)
	}
	rep := fx.tpa.VerifyAudit(req, fx.ef.Layout, st)
	if rep.Accepted {
		t.Fatal("audit with all rounds dropped accepted")
	}
	if rep.FailedRounds != 5 {
		t.Fatalf("failed rounds %d", rep.FailedRounds)
	}
}

func TestAuditRequestValidation(t *testing.T) {
	bad := []AuditRequest{
		{FileID: "", NumSegments: 10, K: 2, Nonce: []byte("n")},
		{FileID: "f", NumSegments: 0, K: 2, Nonce: []byte("n")},
		{FileID: "f", NumSegments: 10, K: 0, Nonce: []byte("n")},
		{FileID: "f", NumSegments: 10, K: 11, Nonce: []byte("n")},
		{FileID: "f", NumSegments: 10, K: 2, Nonce: nil},
	}
	for i, r := range bad {
		if err := r.Validate(); !errors.Is(err, ErrBadRequest) {
			t.Errorf("case %d: %v", i, err)
		}
	}
}

func TestDeriveIndicesDeterministicDistinct(t *testing.T) {
	a, err := DeriveIndices([]byte("nonce"), 1000, 50)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := DeriveIndices([]byte("nonce"), 1000, 50)
	seen := make(map[uint64]bool)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("not deterministic")
		}
		if seen[a[i]] {
			t.Fatal("duplicate index")
		}
		seen[a[i]] = true
		if a[i] >= 1000 {
			t.Fatal("index out of range")
		}
	}
	c, _ := DeriveIndices([]byte("other"), 1000, 50)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different nonces produced identical indices")
	}
}

func TestTranscriptMarshalStable(t *testing.T) {
	tr := Transcript{
		FileID:   "f",
		Nonce:    []byte{1, 2, 3},
		Position: geo.Brisbane,
		Rounds: []AuditRound{
			{Index: 7, Segment: []byte{9, 9}, RTT: 5 * time.Millisecond},
			{Index: 8, Failed: true, RTT: time.Millisecond},
		},
	}
	a := tr.Marshal()
	b := tr.Marshal()
	if !bytes.Equal(a, b) {
		t.Fatal("marshal not deterministic")
	}
	// Any field change must alter the encoding.
	tr2 := tr
	tr2.FileID = "g"
	if bytes.Equal(a, tr2.Marshal()) {
		t.Fatal("file id not covered")
	}
	tr3 := tr
	tr3.Position = geo.Perth
	if bytes.Equal(a, tr3.Marshal()) {
		t.Fatal("position not covered")
	}
	tr4 := tr
	tr4.Rounds = append([]AuditRound{}, tr.Rounds...)
	tr4.Rounds[0].RTT = 6 * time.Millisecond
	if bytes.Equal(a, tr4.Marshal()) {
		t.Fatal("RTT not covered")
	}
	if tr.Digest() == tr2.Digest() {
		t.Fatal("digests collide")
	}
}

// TestTranscriptMarshalExactSize: the encoding is sized from the fields —
// one allocation of exactly its length for a default k=20 audit, where a
// guessed size hint grew the buffer once on every call.
func TestTranscriptMarshalExactSize(t *testing.T) {
	tr := Transcript{FileID: "tenant-007/records.db", Nonce: bytes.Repeat([]byte{5}, 16), Position: geo.Brisbane}
	for i := 0; i < 20; i++ {
		tr.Rounds = append(tr.Rounds, AuditRound{Index: uint64(i), Segment: bytes.Repeat([]byte{byte(i)}, 83), RTT: 6 * time.Millisecond})
	}
	tr.Rounds[3] = AuditRound{Index: 3, Failed: true, RTT: time.Millisecond}
	out := tr.Marshal()
	if cap(out) != len(out) {
		t.Fatalf("Marshal returned %d bytes in a %d-byte buffer", len(out), cap(out))
	}
	if got, err := UnmarshalTranscript(out); err != nil || !bytes.Equal(got.Marshal(), out) {
		t.Fatalf("exact-size encoding does not round-trip: %v", err)
	}
	if n := testing.AllocsPerRun(100, func() { _ = tr.Marshal() }); n != 1 {
		t.Fatalf("Marshal allocates %.0f objects, want 1", n)
	}
}

func TestNewVerifierValidation(t *testing.T) {
	signer, _ := crypt.NewSigner()
	if _, err := NewVerifier(nil, &gps.Receiver{}, nil); err == nil {
		t.Error("nil signer accepted")
	}
	if _, err := NewVerifier(signer, nil, nil); err == nil {
		t.Error("nil receiver accepted")
	}
	v, err := NewVerifier(signer, &gps.Receiver{True: geo.Brisbane}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.Public() == nil {
		t.Fatal("no public key")
	}
}

func TestNewTPAValidation(t *testing.T) {
	enc := por.NewEncoder([]byte("m"))
	signer, _ := crypt.NewSigner()
	if _, err := NewTPA(nil, signer.Public(), DefaultPolicy(cloud.SLA{})); err == nil {
		t.Error("nil encoder accepted")
	}
	if _, err := NewTPA(enc, nil, DefaultPolicy(cloud.SLA{})); err == nil {
		t.Error("nil key accepted")
	}
	if _, err := NewTPA(enc, signer.Public(), Policy{}); err == nil {
		t.Error("zero TMax accepted")
	}
}

func TestRunAuditValidation(t *testing.T) {
	signer, _ := crypt.NewSigner()
	v, _ := NewVerifier(signer, &gps.Receiver{True: geo.Brisbane}, vclock.NewVirtual(time.Time{}))
	if _, err := v.RunAudit(context.Background(), AuditRequest{}, nil); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("empty request: %v", err)
	}
	req := AuditRequest{FileID: "f", NumSegments: 10, K: 2, Nonce: []byte("n")}
	if _, err := v.RunAudit(context.Background(), req, nil); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("nil conn: %v", err)
	}
}

func TestMaxUndetectableRelayBounds(t *testing.T) {
	enc := por.NewEncoder([]byte("m"))
	signer, _ := crypt.NewSigner()
	tpa, _ := NewTPA(enc, signer.Public(), DefaultPolicy(cloud.SLA{Center: geo.Brisbane, RadiusKm: 100}))

	// Paper's verbatim arithmetic: 4/9·c · 5.406 ms / 2 ≈ 360 km.
	paper := PaperRelayBoundKm(disk.IBM36Z15.LookupLatency(512), geo.SpeedInternetKmPerMs)
	if paper < 355 || paper > 365 {
		t.Fatalf("paper relay bound %.1f km, want ≈360", paper)
	}
	// Budget-based bound with 1 ms LAN and the 36Z15 remote disk.
	budget := tpa.MaxUndetectableRelayKm(disk.IBM36Z15.LookupLatency(512), time.Millisecond)
	if budget <= 0 {
		t.Fatal("budget-based bound should be positive")
	}
	// A slower remote disk leaves less slack.
	slower := tpa.MaxUndetectableRelayKm(disk.WD2500JD.LookupLatency(512), time.Millisecond)
	if slower >= budget {
		t.Fatal("slower remote disk should shrink the relay radius")
	}
}

func TestDelayNeverShrinksImpliedDistance(t *testing.T) {
	// GeoProof's one-sidedness: added delay can only increase the
	// implied distance bound, never decrease it. (A provider can look
	// farther than it is, never closer.)
	_, ef := encodeTestFile(t)
	site := honestSite(t, ef)

	var prev float64
	rng := rand.New(rand.NewSource(1))
	_ = rng
	for i, extra := range []time.Duration{0, 5 * time.Millisecond, 20 * time.Millisecond, 80 * time.Millisecond} {
		var provider cloud.Provider = &cloud.HonestProvider{Site: site}
		if extra > 0 {
			provider = &cloud.ThrottledProvider{Inner: &cloud.HonestProvider{Site: site}, Extra: extra}
		}
		fx := newFixture(t, provider)
		req, _ := fx.tpa.NewRequest(testFileID, fx.ef.Layout, 8)
		st, err := fx.verifier.RunAudit(context.Background(), req, fx.conn)
		if err != nil {
			t.Fatal(err)
		}
		rep := fx.tpa.VerifyAudit(req, fx.ef.Layout, st)
		if i > 0 && rep.ImpliedMaxDistanceKm < prev {
			t.Fatalf("added delay shrank implied distance: %.1f -> %.1f", prev, rep.ImpliedMaxDistanceKm)
		}
		prev = rep.ImpliedMaxDistanceKm
	}
}
