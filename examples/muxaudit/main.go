// Muxaudit: the multiplexed audit transport end to end over real TCP —
// a ProverServer on loopback, a ProverPool keeping one persistent mux
// v2 connection warm, and the core.Scheduler driving a tenant fleet's
// audits through PooledRunner so concurrent audits share the connection,
// each running its k serial timed rounds on streams of its own. The
// demo self-checks the two properties the shared connection is for:
// every scheduled audit rides one TCP dial, and a cancelled in-flight
// audit does not poison the connection for its siblings.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"net"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/crypt"
	"repro/internal/disk"
	"repro/internal/geo"
	"repro/internal/gps"
	"repro/internal/por"
)

const (
	numTenants = 16
	rounds     = 16
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Prepare one 256 KiB file and serve it from a loopback prover.
	enc := por.NewEncoder([]byte("muxaudit-master"))
	data := make([]byte, 256<<10)
	rand.New(rand.NewSource(7)).Read(data)
	ef, err := enc.Encode("muxaudit-file", data)
	if err != nil {
		return err
	}
	site := cloud.NewSite(cloud.DataCenter{Name: "bne", Position: geo.Brisbane, Disk: disk.WD2500JD}, 7)
	site.Store(ef.FileID, ef.Layout, ef.Data)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &core.ProverServer{Provider: &cloud.HonestProvider{Site: site}}
	go srv.Serve(lis)
	defer srv.Close()
	addr := lis.Addr().String()

	signer, err := crypt.NewSigner()
	if err != nil {
		return err
	}
	verifier, err := core.NewVerifier(signer, &gps.Receiver{True: geo.Brisbane}, nil)
	if err != nil {
		return err
	}
	policy := core.DefaultPolicy(cloud.SLA{Center: geo.Brisbane, RadiusKm: 100})
	policy.TMax = time.Second // loopback, wall clock: timing is not the demo
	tpa, err := core.NewTPA(enc, signer.Public(), policy)
	if err != nil {
		return err
	}

	// One pool, one prover: every audit in the epoch borrows the same
	// warm multiplexed connection.
	pool := &core.ProverPool{DialTimeout: 5 * time.Second}
	defer pool.Close()
	sched := core.NewScheduler(core.SchedulerConfig{Workers: 8, ProverWindow: 8, Timeout: 10 * time.Second})
	sched.RegisterProver("dc-bne", &core.PooledRunner{Verifier: verifier, Addr: addr, Pool: pool})
	tasks := make([]core.AuditTask, numTenants)
	for i := range tasks {
		tenant := fmt.Sprintf("tenant-%02d", i)
		sched.RegisterTenant(tenant, tpa)
		tasks[i] = core.AuditTask{Tenant: tenant, Prover: "dc-bne", FileID: ef.FileID, Layout: ef.Layout, K: rounds}
	}
	start := time.Now()
	verdicts := sched.RunEpoch(context.Background(), tasks)
	elapsed := time.Since(start)
	for i, v := range verdicts {
		if v.Outcome != core.OutcomeAccepted {
			return fmt.Errorf("audit %d: %s (%s)", i, v.Outcome, v.Err)
		}
	}
	if d := pool.Dials(); d != 1 {
		return fmt.Errorf("%d audits used %d TCP dials, want 1", len(verdicts), d)
	}
	fmt.Printf("epoch: %d audits × %d serial rounds over 1 pooled connection in %v (%.0f audits/s)\n",
		len(verdicts), rounds, elapsed.Round(time.Millisecond), float64(len(verdicts))/elapsed.Seconds())

	// Cancellation isolation: an audit abandoned mid-flight tombstones
	// only its own stream. The connection stays healthy, the pool keeps
	// it, and a sibling audit on the same conn succeeds immediately.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	req, err := tpa.NewRequest(ef.FileID, ef.Layout, rounds)
	if err != nil {
		return err
	}
	runner := &core.PooledRunner{Verifier: verifier, Addr: addr, Pool: pool}
	if _, err := runner.RunAudit(cancelled, req); !errors.Is(err, context.Canceled) {
		return fmt.Errorf("cancelled audit returned %v, want context.Canceled", err)
	}
	req2, err := tpa.NewRequest(ef.FileID, ef.Layout, rounds)
	if err != nil {
		return err
	}
	st, err := runner.RunAudit(context.Background(), req2)
	if err != nil {
		return fmt.Errorf("sibling audit after cancellation: %w", err)
	}
	if rep := tpa.VerifyAudit(req2, ef.Layout, st); !rep.Accepted {
		return fmt.Errorf("sibling audit rejected: %s", rep.Reason())
	}
	if d := pool.Dials(); d != 1 {
		return fmt.Errorf("cancellation forced a redial (%d dials), conn was poisoned", d)
	}
	fmt.Println("cancelled in-flight audit left the shared connection healthy (no redial)")
	fmt.Println("muxaudit: OK")
	return nil
}
