package main

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/crypt"
	"repro/internal/disk"
	"repro/internal/geo"
	"repro/internal/gps"
	"repro/internal/por"
)

// TestRunFleetRetiresAfterEpochs: with epochs = 3 every prover leaves
// after its third cycle, the run ends on its own, and the ledger holds
// only finished, accepted audits — none cancelled by the leave.
func TestRunFleetRetiresAfterEpochs(t *testing.T) {
	const epochs = 3
	enc := por.NewEncoder([]byte("retire-master"))
	ef, err := enc.Encode("retire-file", make([]byte, 64<<10))
	if err != nil {
		t.Fatal(err)
	}
	site := cloud.NewSite(cloud.DataCenter{Name: "bne", Position: geo.Brisbane, Disk: disk.WD2500JD}, 1)
	site.Store(ef.FileID, ef.Layout, ef.Data)
	signer, err := crypt.NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	verifier, err := core.NewVerifier(signer, &gps.Receiver{True: geo.Brisbane}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tpa, err := core.NewTPA(enc, signer.Public(), core.DefaultPolicy(cloud.SLA{Center: geo.Brisbane, RadiusKm: 100}))
	if err != nil {
		t.Fatal(err)
	}

	pool := &core.ProverPool{}
	defer pool.Close()
	// 200 ms between cycles leaves the 10 ms retire poll ample margin.
	ctl := core.NewFleetController(core.FleetConfig{AuditPeriod: 200 * time.Millisecond, Pool: pool})
	defer ctl.Close()
	ctl.RegisterTenant("tenant", tpa)
	for i := 0; i < 2; i++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := &core.ProverServer{Provider: &cloud.HonestProvider{Site: site}}
		go srv.Serve(lis)
		defer srv.Close()
		addr := lis.Addr().String()
		if err := ctl.Register(addr, core.ProverSpec{
			Runner: &core.PooledRunner{Verifier: verifier, Addr: addr, Pool: pool},
			Addr:   addr,
			Tasks:  []core.AuditTask{{Tenant: "tenant", FileID: ef.FileID, Layout: ef.Layout, K: 4}},
		}); err != nil {
			t.Fatal(err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := runFleet(ctx, ctl, epochs); !errors.Is(err, context.Canceled) {
		t.Fatalf("runFleet returned %v, want context.Canceled", err)
	}
	if ctx.Err() != nil {
		t.Fatal("the run ended on the deadline, not because every prover retired")
	}
	if n := len(ctl.Status().Provers); n != 0 {
		t.Fatalf("%d provers still registered", n)
	}
	rows := ctl.Ledger().TotalsByProver()
	if len(rows) != 2 {
		t.Fatalf("ledger has %d provers, want 2", len(rows))
	}
	for _, row := range rows {
		if row.Audits < epochs || row.Accepted != row.Audits {
			t.Fatalf("%s: audits=%d ok=%d rejected=%d timeout=%d error=%d, want %d or more, all accepted",
				row.Name, row.Audits, row.Accepted, row.Rejected, row.Timeouts, row.Errors, epochs)
		}
	}
}
