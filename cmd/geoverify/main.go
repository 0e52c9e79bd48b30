// Command geoverify runs a live GeoProof audit against a geoproofd
// prover: it plays both the verifier device (timing the rounds on the
// wall clock, signing the transcript) and the TPA (verifying signature,
// MACs and the Δt_max bound), then prints the §V-B verification report.
//
// With -via it is the TPA alone (the paper's three-party deployment): the
// audit request goes to a geoverifierd daemon over the same multiplexed
// transport, the daemon runs the rounds against its prover, and the
// transcript that comes back is verified against the daemon's public key
// (-vkey) whether the daemon signed it or batch-attested it.
//
// Usage:
//
//	geoverify -addr host:9341 -meta data.meta.json [-k 20] [-tmax 50ms]
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
	"repro/internal/crypt"
	"repro/internal/geo"
	"repro/internal/gps"
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
	addr := flag.String("addr", "127.0.0.1:9341", "prover address (local-verifier mode)")
	via := flag.String("via", "", "remote verifier daemon address (three-party mode)")
	vkey := flag.String("vkey", "", "remote verifier's compressed public key (hex), required with -via")
	metaPath := flag.String("meta", "", "metadata sidecar from geoprep")
	k := flag.Int("k", 20, "number of timed challenge rounds")
	tmax := flag.Duration("tmax", 50*time.Millisecond, "per-round acceptance bound Δt_max")
	radius := flag.Float64("radius", 100, "SLA radius in km around the verifier position")
	flag.Parse()

	if *metaPath == "" {
		return fmt.Errorf("-meta is required")
	}
	if *via != "" {
		return runRemote(*via, *vkey, *metaPath, *k, *tmax, *radius)
	}
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

	conn, err := core.DialMuxProver(*addr, 5*time.Second)
	if err != nil {
		return err
	}
	defer conn.Close()
	if rtt, err := conn.Ping(context.Background()); err == nil {
		fmt.Printf("prover reachable, transport RTT %v\n", rtt)
	}

	// The demo verifier device sits at the audited site (Brisbane in the
	// simulated deployments); a production device would read real GPS.
	signer, err := crypt.NewSigner()
	if err != nil {
		return err
	}
	verifier, err := core.NewVerifier(signer, &gps.Receiver{True: geo.Brisbane}, nil)
	if err != nil {
		return err
	}
	policy := core.DefaultPolicy(cloud.SLA{Center: geo.Brisbane, RadiusKm: *radius})
	policy.TMax = *tmax
	tpa, err := core.NewTPA(enc, signer.Public(), policy)
	if err != nil {
		return err
	}

	req, err := tpa.NewRequest(m.FileID, layout, *k)
	if err != nil {
		return err
	}
	start := time.Now()
	st, err := verifier.RunAudit(context.Background(), req, conn)
	if err != nil {
		return err
	}
	rep := tpa.VerifyAudit(req, layout, st)

	fmt.Printf("audit of %q: %d rounds in %v\n", m.FileID, *k, time.Since(start).Round(time.Millisecond))
	fmt.Printf("  signature OK: %v\n", rep.SignatureOK)
	fmt.Printf("  position OK:  %v (verifier at %s)\n", rep.PositionOK, st.Transcript.Position)
	fmt.Printf("  indices OK:   %v\n", rep.IndicesOK)
	fmt.Printf("  MACs OK:      %v (%d ok, %d bad, %d failed rounds)\n", rep.MACsOK, rep.SegmentsOK, rep.SegmentsBad, rep.FailedRounds)
	fmt.Printf("  timing OK:    %v (max RTT %v, mean %v, Δt_max %v)\n", rep.TimingOK, rep.MaxRTT, rep.MeanRTT, policy.TMax)
	fmt.Printf("  implied max distance: %.0f km\n", rep.ImpliedMaxDistanceKm)
	if rep.Accepted {
		fmt.Println("VERDICT: ACCEPTED — data is where the SLA says it is")
		return nil
	}
	return fmt.Errorf("VERDICT: REJECTED — %s", rep.Reason())
}

// runRemote is the three-party mode: the TPA talks only to the verifier
// daemon, which runs the timed rounds against the prover on its side.
func runRemote(via, vkeyHex, metaPath string, k int, tmax time.Duration, radius float64) error {
	if vkeyHex == "" {
		return fmt.Errorf("-vkey is required with -via (printed by geoverifierd at startup)")
	}
	keyBytes, err := hex.DecodeString(vkeyHex)
	if err != nil {
		return fmt.Errorf("decode verifier key: %w", err)
	}
	x, y := elliptic.UnmarshalCompressed(elliptic.P256(), keyBytes)
	if x == nil {
		return fmt.Errorf("invalid compressed verifier key")
	}
	pub := &ecdsa.PublicKey{Curve: elliptic.P256(), X: x, Y: y}

	m, err := meta.Load(metaPath)
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

	remote, err := core.DialMuxProver(via, 5*time.Second)
	if err != nil {
		return err
	}
	defer remote.Close()

	policy := core.DefaultPolicy(cloud.SLA{Center: geo.Brisbane, RadiusKm: radius})
	policy.TMax = tmax
	tpa, err := core.NewTPA(enc, pub, policy)
	if err != nil {
		return err
	}
	req, err := tpa.NewRequest(m.FileID, layout, k)
	if err != nil {
		return err
	}
	st, err := remote.RunAudit(context.Background(), req)
	if err != nil {
		return err
	}
	rep := tpa.VerifyAudit(req, layout, st)
	fmt.Printf("remote audit of %q via %s:\n", m.FileID, via)
	fmt.Printf("  sig=%v (%s) pos=%v indices=%v macs=%v timing=%v maxRTT=%v implied<=%.0f km\n",
		rep.SignatureOK, rep.Attestation, rep.PositionOK, rep.IndicesOK, rep.MACsOK, rep.TimingOK,
		rep.MaxRTT, rep.ImpliedMaxDistanceKm)
	if rep.Accepted {
		fmt.Println("VERDICT: ACCEPTED — data is where the SLA says it is")
		return nil
	}
	return fmt.Errorf("VERDICT: REJECTED — %s", rep.Reason())
}
