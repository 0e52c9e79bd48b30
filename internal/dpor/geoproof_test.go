package dpor

import (
	"bytes"
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/crypt"
	"repro/internal/disk"
	"repro/internal/geo"
	"repro/internal/gps"
	"repro/internal/simnet"
	"repro/internal/vclock"
)

// dynFixture wires a dynamic store behind the standard simulated
// GeoProof deployment.
type dynFixture struct {
	client   *Client
	store    *Store
	verifier *core.Verifier
	auditor  *Auditor
	conn     *core.MuxProverConn
}

func newDynFixture(t *testing.T, providerDisk disk.Model, lanKm float64) *dynFixture {
	t.Helper()
	client, err := NewClient([]byte("dyn-master"), "dyn-file", 64)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 8000)
	rand.New(rand.NewSource(1)).Read(data)
	leaves, err := client.Init(data)
	if err != nil {
		t.Fatal(err)
	}
	store, err := NewStore("dyn-file", leaves)
	if err != nil {
		t.Fatal(err)
	}

	clk := vclock.NewVirtual(time.Time{})
	net := simnet.New(clk, 11)
	provider := &Provider{Store: store, Position: geo.Brisbane, Disk: providerDisk}
	net.SetLink("verifier", "prover", simnet.LANLink{
		DistanceKm: lanKm, Switches: 3,
		PerSwitch: 30 * time.Microsecond, Base: 100 * time.Microsecond,
	})
	lis, err := net.Listen("prover")
	if err != nil {
		t.Fatal(err)
	}
	srv := &core.ProverServer{Provider: provider, SimulateServiceTime: true}
	go srv.Serve(lis)
	pool := &core.ProverPool{Dial: net.Dialer("verifier")}
	t.Cleanup(func() {
		pool.Close()
		srv.Close()
	})
	conn, _, err := pool.Get("prover")
	if err != nil {
		t.Fatal(err)
	}

	signer, err := crypt.NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	verifier, err := core.NewVerifier(signer, &gps.Receiver{True: geo.Brisbane}, clk)
	if err != nil {
		t.Fatal(err)
	}
	auditor := &Auditor{
		Root:   client.Root(),
		Pub:    signer,
		Policy: core.DefaultPolicy(cloud.SLA{Center: geo.Brisbane, RadiusKm: 100}),
	}
	return &dynFixture{
		client: client, store: store, verifier: verifier, auditor: auditor, conn: conn,
	}
}

func (f *dynFixture) runAudit(t *testing.T, k int) core.Report {
	t.Helper()
	nonce := make([]byte, 16)
	rand.New(rand.NewSource(99)).Read(nonce)
	req := core.AuditRequest{
		FileID:      "dyn-file",
		NumSegments: int64(f.store.Len()),
		K:           k,
		Nonce:       nonce,
	}
	st, err := f.verifier.RunAudit(context.Background(), req, f.conn)
	if err != nil {
		t.Fatal(err)
	}
	return f.auditor.VerifyAudit(req, st)
}

func TestDynamicGeoProofHonestAccepted(t *testing.T) {
	f := newDynFixture(t, disk.WD2500JD, 0.5)
	rep := f.runAudit(t, 15)
	if !rep.Accepted {
		t.Fatalf("honest dynamic audit rejected: %s", rep.Reason())
	}
	if rep.SegmentsOK != 15 {
		t.Fatalf("segments ok %d", rep.SegmentsOK)
	}
	if rep.MaxRTT > 16*time.Millisecond || rep.MaxRTT < 13*time.Millisecond {
		t.Fatalf("max RTT %v outside honest envelope", rep.MaxRTT)
	}
}

func TestDynamicGeoProofAfterUpdatesStillAccepted(t *testing.T) {
	f := newDynFixture(t, disk.WD2500JD, 0.5)
	blk := bytes.Repeat([]byte{5}, 64)
	for i := 0; i < 10; i++ {
		if err := f.client.Update(f.store, i, blk); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.client.Append(f.store, blk); err != nil {
		t.Fatal(err)
	}
	f.auditor.Root = f.client.Root() // TPA learns the new root
	rep := f.runAudit(t, 15)
	if !rep.Accepted {
		t.Fatalf("audit after updates rejected: %s", rep.Reason())
	}
}

func TestDynamicGeoProofStaleRootRejected(t *testing.T) {
	// The TPA holds the post-update root; a server that rolled back to
	// pre-update state fails block verification.
	f := newDynFixture(t, disk.WD2500JD, 0.5)
	oldLeaves := make([][]byte, f.store.Len())
	for i := range oldLeaves {
		leaf, _, err := f.store.Read(i)
		if err != nil {
			t.Fatal(err)
		}
		oldLeaves[i] = leaf
	}
	blk := bytes.Repeat([]byte{6}, 64)
	for i := 0; i < f.store.Len(); i++ {
		if err := f.client.Update(f.store, i, blk); err != nil {
			t.Fatal(err)
		}
	}
	f.auditor.Root = f.client.Root()
	// Roll every block back.
	for i, leaf := range oldLeaves {
		if err := f.store.Corrupt(i, leaf); err != nil {
			t.Fatal(err)
		}
	}
	rep := f.runAudit(t, 10)
	if rep.Accepted || rep.MACsOK {
		t.Fatal("rollback attack accepted by dynamic audit")
	}
}

func TestDynamicGeoProofRelayRejected(t *testing.T) {
	// Same timing bound as the static protocol: put the dynamic store
	// behind an interstate LAN distance (here modelled by a long link).
	f := newDynFixture(t, disk.IBM36Z15, 1500) // 1500 km "LAN" = relay
	rep := f.runAudit(t, 8)
	if rep.Accepted || rep.TimingOK {
		t.Fatalf("relayed dynamic store passed timing: max RTT %v", rep.MaxRTT)
	}
	if !rep.MACsOK {
		t.Fatal("content checks should still pass for a relay")
	}
}

func TestProviderWrongFile(t *testing.T) {
	f := newDynFixture(t, disk.WD2500JD, 0.5)
	p := &Provider{Store: f.store, Position: geo.Brisbane, Disk: disk.WD2500JD}
	if _, _, err := p.FetchSegment("other-file", 0); err == nil {
		t.Fatal("wrong file served")
	}
	if p.Name() == "" || p.ClaimedPosition() != geo.Brisbane {
		t.Fatal("provider identity wrong")
	}
}
