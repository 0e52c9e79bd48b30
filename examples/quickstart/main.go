// Quickstart: the complete GeoProof flow in one process over the
// simulated network — encode a file (§V-A), store it at a Brisbane data
// centre, run a timed audit through the verifier device (§V-B) and print
// the TPA's verification report.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
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

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// 1. The data owner prepares the file: ECC -> encrypt -> permute ->
	//    MAC-tagged segments.
	master, err := crypt.NewMasterKey()
	if err != nil {
		return err
	}
	owner := por.NewEncoder(master)
	file := bytes.Repeat([]byte("customer-record-"), 4096) // 64 KiB demo file
	encoded, err := owner.Encode("demo/customers.db", file)
	if err != nil {
		return err
	}
	fmt.Printf("encoded %d bytes -> %d bytes (%.1f%% overhead), %d segments of %d bytes\n",
		len(file), len(encoded.Data), encoded.Layout.TotalOverhead()*100,
		encoded.Layout.Segments, encoded.Layout.SegmentSize())

	// 2. The provider stores it at the contracted Brisbane data centre
	//    on an average 7200-RPM disk.
	site := cloud.NewSite(cloud.DataCenter{
		Name:     "bne-dc1",
		Position: geo.Brisbane,
		Disk:     disk.WD2500JD,
	}, 1)
	site.Store(encoded.FileID, encoded.Layout, encoded.Data)

	// 3. Deploy the verifier device in the provider's LAN (§V: GPS
	//    enabled, tamper-proof, holds a signing key).
	clk := vclock.NewVirtual(time.Time{})
	net := simnet.New(clk, 42)
	net.SetLink("verifier", "prover", simnet.LANLink{
		DistanceKm: 0.5, Switches: 3,
		PerSwitch: 30 * time.Microsecond, Base: 100 * time.Microsecond,
	})
	lis, err := net.Listen("prover")
	if err != nil {
		return err
	}
	srv := &core.ProverServer{Provider: &cloud.HonestProvider{Site: site}, SimulateServiceTime: true}
	go srv.Serve(lis)
	defer srv.Close()
	pool := &core.ProverPool{Dial: net.Dialer("verifier")}
	defer pool.Close()
	signer, err := crypt.NewSigner()
	if err != nil {
		return err
	}
	verifier, err := core.NewVerifier(signer, &gps.Receiver{True: geo.Brisbane}, clk)
	if err != nil {
		return err
	}

	// 4. The TPA audits: 20 timed rounds under the paper's 16 ms policy.
	tpa, err := core.NewTPA(owner, signer.Public(),
		core.DefaultPolicy(cloud.SLA{Center: geo.Brisbane, RadiusKm: 100}))
	if err != nil {
		return err
	}
	req, err := tpa.NewRequest(encoded.FileID, encoded.Layout, 20)
	if err != nil {
		return err
	}
	conn, _, err := pool.Get("prover")
	if err != nil {
		return err
	}
	st, err := verifier.RunAudit(context.Background(), req, conn)
	if err != nil {
		return err
	}
	rep := tpa.VerifyAudit(req, encoded.Layout, st)

	fmt.Printf("verifier GPS fix: %s\n", st.Transcript.Position)
	fmt.Printf("max round RTT %v (Δt_max %v), mean %v\n", rep.MaxRTT, tpa.Policy().TMax, rep.MeanRTT)
	fmt.Printf("segments verified: %d/%d, implied max distance to data: %.0f km\n",
		rep.SegmentsOK, req.K, rep.ImpliedMaxDistanceKm)
	if !rep.Accepted {
		return fmt.Errorf("audit rejected: %s", rep.Reason())
	}
	fmt.Println("audit ACCEPTED: the data is provably near the contracted location")

	// 5. And the file is still fully retrievable from the encoded form.
	back, err := owner.Extract(encoded.FileID, encoded.Layout, encoded.Data)
	if err != nil {
		return err
	}
	if !bytes.Equal(back, file) {
		return fmt.Errorf("extracted file differs from the original")
	}
	fmt.Println("extraction round trip OK")
	return nil
}
