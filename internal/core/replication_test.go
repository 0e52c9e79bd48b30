package core

import (
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
)

// replicaDeployment builds one replica site with its own verifier and
// TPA in the given city.
func replicaDeployment(t *testing.T, enc *por.Encoder, ef *por.EncodedFile, name string, pos geo.Position, seed int64) ReplicaTarget {
	t.Helper()
	site := cloud.NewSite(cloud.DataCenter{Name: name, Position: pos, Disk: disk.WD2500JD}, seed)
	site.Store(ef.FileID, ef.Layout, ef.Data)

	net, conn := simProver(t, &cloud.HonestProvider{Site: site}, seed)
	signer, err := crypt.NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	verifier, err := NewVerifier(signer, &gps.Receiver{True: pos}, net.Clock())
	if err != nil {
		t.Fatal(err)
	}
	tpa, err := NewTPA(enc, signer.Public(), DefaultPolicy(cloud.SLA{Center: pos, RadiusKm: 100}))
	if err != nil {
		t.Fatal(err)
	}
	return ReplicaTarget{
		Name:     name,
		Verifier: verifier,
		Conn:     conn,
		TPA:      tpa,
	}
}

func TestReplicationAuditDiverseReplicasAccepted(t *testing.T) {
	enc, ef := encodeTestFile(t)
	targets := []ReplicaTarget{
		replicaDeployment(t, enc, ef, "bne", geo.Brisbane, 1),
		replicaDeployment(t, enc, ef, "syd", geo.Sydney, 2),
		replicaDeployment(t, enc, ef, "per", geo.Perth, 3),
	}
	rep, err := AuditReplicas(context.Background(), testFileID, ef.Layout, targets, 10, 500)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Accepted() {
		t.Fatalf("diverse replicas rejected: %v", rep.Reasons)
	}
	if len(rep.Results) != 3 {
		t.Fatalf("%d results", len(rep.Results))
	}
	// Brisbane-Sydney ≈ 730 km is the closest pair.
	if rep.MinPairKm < 600 || rep.MinPairKm > 900 {
		t.Fatalf("min pair %.0f km", rep.MinPairKm)
	}
}

func TestReplicationAuditCoLocatedReplicasFailDiversity(t *testing.T) {
	enc, ef := encodeTestFile(t)
	targets := []ReplicaTarget{
		replicaDeployment(t, enc, ef, "bne-1", geo.Brisbane, 4),
		replicaDeployment(t, enc, ef, "bne-2", geo.Brisbane, 5),
	}
	rep, err := AuditReplicas(context.Background(), testFileID, ef.Layout, targets, 5, 500)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accepted() || rep.DiversityOK {
		t.Fatal("co-located replicas passed the diversity check")
	}
	if !rep.AllAccepted {
		t.Fatal("individual audits should still pass")
	}
}

func TestReplicationAuditBadReplicaRejected(t *testing.T) {
	enc, ef := encodeTestFile(t)
	good := replicaDeployment(t, enc, ef, "bne", geo.Brisbane, 6)

	// The Sydney "replica" actually relays to Perth.
	remote := cloud.NewSite(cloud.DataCenter{Name: "per", Position: geo.Perth, Disk: disk.IBM36Z15}, 7)
	remote.Store(ef.FileID, ef.Layout, ef.Data)
	relay := cloud.NewRelayProvider(
		cloud.DataCenter{Name: "syd-front", Position: geo.Sydney, Disk: disk.WD2500JD},
		remote,
		simnet.InternetLink{DistanceKm: geo.Sydney.DistanceKm(geo.Perth), LastMile: simnet.DefaultLastMile},
		8,
	)
	net, conn := simProver(t, relay, 9)
	signer, _ := crypt.NewSigner()
	verifier, _ := NewVerifier(signer, &gps.Receiver{True: geo.Sydney}, net.Clock())
	tpa, _ := NewTPA(enc, signer.Public(), DefaultPolicy(cloud.SLA{Center: geo.Sydney, RadiusKm: 100}))
	bad := ReplicaTarget{Name: "syd", Verifier: verifier, Conn: conn, TPA: tpa}

	rep, err := AuditReplicas(context.Background(), testFileID, ef.Layout, []ReplicaTarget{good, bad}, 8, 500)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accepted() || rep.AllAccepted {
		t.Fatal("relaying replica accepted")
	}
}

func TestReplicationAuditNoTargets(t *testing.T) {
	_, ef := encodeTestFile(t)
	if _, err := AuditReplicas(context.Background(), testFileID, ef.Layout, nil, 5, 0); !errors.Is(err, ErrNoReplicas) {
		t.Fatalf("got %v", err)
	}
}

func TestCrossCheckPositionCatchesLie(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Device truly in Brisbane, claims Perth; auditors around the
	// country measure RTTs to the true position.
	var ms []gps.AuditorMeasurement
	for _, a := range []geo.Position{geo.Sydney, geo.Townsville, geo.Melbourne} {
		ms = append(ms, gps.MeasureFromAuditor(a, geo.Brisbane, simnet.DefaultLastMile, 0, rng))
	}
	rep := Report{Accepted: true, PositionOK: true}
	if err := CrossCheckPosition(&rep, geo.Perth, ms, 50); err != nil {
		t.Fatal(err)
	}
	if rep.Accepted || rep.PositionOK {
		t.Fatal("triangulation missed the position lie")
	}
	// Honest claim survives.
	rep2 := Report{Accepted: true, PositionOK: true}
	if err := CrossCheckPosition(&rep2, geo.Brisbane, ms, 50); err != nil {
		t.Fatal(err)
	}
	if !rep2.Accepted || !rep2.PositionOK {
		t.Fatal("triangulation rejected an honest claim")
	}
	if err := CrossCheckPosition(&rep2, geo.Brisbane, nil, 50); err == nil {
		t.Fatal("no-auditor cross check accepted")
	}
}

func TestAuditInterval(t *testing.T) {
	// 0.5% segment corruption, 100-round audits, 99% confidence within
	// 30 days: per-audit detection is 1-(0.995)^100 ≈ 0.394, so ~10
	// audits are needed → interval ≈ 3 days.
	iv, err := AuditInterval(30*24*time.Hour, 0.005, 100, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if iv < 2*24*time.Hour || iv > 4*24*time.Hour {
		t.Fatalf("interval %v", iv)
	}
	if _, err := AuditInterval(0, 0.005, 100, 0.99); err == nil {
		t.Fatal("zero horizon accepted")
	}
	if _, err := AuditInterval(time.Hour, 0.005, 100, 1.0); err == nil {
		t.Fatal("certainty accepted")
	}
	if _, err := AuditInterval(time.Hour, 0, 100, 0.9); err == nil {
		t.Fatal("zero corruption should be unreachable")
	}
}
