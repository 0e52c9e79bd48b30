// Command geoverify is the TPA of a live GeoProof audit (the paper's
// three-party deployment, §V-B): it sends the audit request to a
// geoverifierd daemon — the verifier device in the provider's LAN — over
// the multiplexed transport, the daemon runs the timed rounds against its
// prover, and the transcript that comes back is verified against the
// daemon's public key (-vkey) whether the daemon signed it or
// batch-attested it: signature, position, indices, MACs and the Δt_max
// bound. It prints the §V-B verification report.
//
// Usage:
//
//	geoverify -via host:9342 -vkey <hex> -meta data.meta.json [-k 20] [-tmax 50ms]
package main

import (
	"context"
	"crypto/ecdsa"
	"crypto/elliptic"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/meta"
	"repro/internal/por"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "geoverify:", err)
		os.Exit(1)
	}
}

func run() error {
	via := flag.String("via", "", "verifier daemon address (geoverifierd)")
	vkey := flag.String("vkey", "", "verifier daemon's compressed public key (hex, printed by geoverifierd at startup)")
	metaPath := flag.String("meta", "", "metadata sidecar from geoprep")
	k := flag.Int("k", 20, "number of timed challenge rounds")
	tmax := flag.Duration("tmax", 50*time.Millisecond, "per-round acceptance bound Δt_max")
	radius := flag.Float64("radius", 100, "SLA radius in km around the verifier position")
	flag.Parse()

	if *via == "" {
		return fmt.Errorf("-via is required (the geoverifierd address)")
	}
	if *vkey == "" {
		return fmt.Errorf("-vkey is required (printed by geoverifierd at startup)")
	}
	if *metaPath == "" {
		return fmt.Errorf("-meta is required")
	}
	keyBytes, err := hex.DecodeString(*vkey)
	if err != nil {
		return fmt.Errorf("decode verifier key: %w", err)
	}
	x, y := elliptic.UnmarshalCompressed(elliptic.P256(), keyBytes)
	if x == nil {
		return fmt.Errorf("invalid compressed verifier key")
	}
	pub := &ecdsa.PublicKey{Curve: elliptic.P256(), X: x, Y: y}

	m, err := meta.Load(*metaPath)
	if err != nil {
		return err
	}
	layout, err := m.Layout()
	if err != nil {
		return err
	}
	master, err := m.MasterKey()
	if err != nil {
		return err
	}
	enc := por.NewEncoder(master).WithParams(m.Params)

	remote, err := core.DialMuxProver(*via, 5*time.Second)
	if err != nil {
		return err
	}
	defer remote.Close()

	policy := core.DefaultPolicy(cloud.SLA{Center: geo.Brisbane, RadiusKm: *radius})
	policy.TMax = *tmax
	tpa, err := core.NewTPA(enc, pub, policy)
	if err != nil {
		return err
	}
	req, err := tpa.NewRequest(m.FileID, layout, *k)
	if err != nil {
		return err
	}
	st, err := remote.RunAudit(context.Background(), req)
	if err != nil {
		return err
	}
	rep := tpa.VerifyAudit(req, layout, st)
	fmt.Printf("remote audit of %q via %s:\n", m.FileID, *via)
	fmt.Printf("  sig=%v (%s) pos=%v indices=%v macs=%v timing=%v maxRTT=%v implied<=%.0f km\n",
		rep.SignatureOK, rep.Attestation, rep.PositionOK, rep.IndicesOK, rep.MACsOK, rep.TimingOK,
		rep.MaxRTT, rep.ImpliedMaxDistanceKm)
	if rep.Accepted {
		fmt.Println("VERDICT: ACCEPTED — data is where the SLA says it is")
		return nil
	}
	return fmt.Errorf("VERDICT: REJECTED — %s", rep.Reason())
}
