package core_test

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/crypt"
	"repro/internal/disk"
	"repro/internal/geo"
	"repro/internal/gps"
	"repro/internal/por"
	"repro/internal/simnet"
	"repro/internal/vclock"
)

// ExampleTPA_VerifyAudit runs one complete GeoProof audit over the
// simulated network — owner encodes, provider stores and serves, the
// GPS-enabled verifier device times the challenge rounds over its pooled
// mux connection on the virtual clock, and the TPA checks signature,
// position, MACs and the Δt_max bound.
func ExampleTPA_VerifyAudit() {
	// Owner prepares the file.
	owner := por.NewEncoder(bytes.Repeat([]byte{0x42}, 32)).WithConcurrency(1)
	encoded, err := owner.Encode("tenant-1/records.db", make([]byte, 8192))
	if err != nil {
		fmt.Println(err)
		return
	}

	// Provider stores it at the contracted Brisbane site.
	site := cloud.NewSite(cloud.DataCenter{
		Name: "bne-dc1", Position: geo.Brisbane, Disk: disk.WD2500JD,
	}, 1)
	site.Store(encoded.FileID, encoded.Layout, encoded.Data)

	// Verifier device in the provider's LAN, on the simulation's clock;
	// the provider serves its node's listener.
	clk := vclock.NewVirtual(time.Time{})
	net := simnet.New(clk, 42)
	net.SetLink("verifier", "prover", simnet.LANLink{
		DistanceKm: 0.5, Switches: 3,
		PerSwitch: 30 * time.Microsecond, Base: 100 * time.Microsecond,
	})
	lis, err := net.Listen("prover")
	if err != nil {
		fmt.Println(err)
		return
	}
	srv := &core.ProverServer{Provider: &cloud.HonestProvider{Site: site}, SimulateServiceTime: true}
	go srv.Serve(lis)
	defer srv.Close()
	pool := &core.ProverPool{Dial: net.Dialer("verifier")}
	defer pool.Close()
	signer, err := crypt.NewSigner()
	if err != nil {
		fmt.Println(err)
		return
	}
	verifier, err := core.NewVerifier(signer, &gps.Receiver{True: geo.Brisbane}, clk)
	if err != nil {
		fmt.Println(err)
		return
	}

	// The TPA opens a 10-round audit under the paper's 16 ms policy and
	// verifies the signed transcript.
	tpa, err := core.NewTPA(owner, signer.Public(),
		core.DefaultPolicy(cloud.SLA{Center: geo.Brisbane, RadiusKm: 100}))
	if err != nil {
		fmt.Println(err)
		return
	}
	req, err := tpa.NewRequest(encoded.FileID, encoded.Layout, 10)
	if err != nil {
		fmt.Println(err)
		return
	}
	runner := &core.PooledRunner{Verifier: verifier, Addr: "prover", Pool: pool}
	st, err := runner.RunAudit(context.Background(), req)
	if err != nil {
		fmt.Println(err)
		return
	}
	rep := tpa.VerifyAudit(req, encoded.Layout, st)

	fmt.Println("signature OK:", rep.SignatureOK)
	fmt.Println("position OK:", rep.PositionOK)
	fmt.Printf("MACs OK: %v (%d segments)\n", rep.MACsOK, rep.SegmentsOK)
	fmt.Println("timing OK:", rep.TimingOK)
	fmt.Println("accepted:", rep.Accepted)

	// Output:
	// signature OK: true
	// position OK: true
	// MACs OK: true (10 segments)
	// timing OK: true
	// accepted: true
}
