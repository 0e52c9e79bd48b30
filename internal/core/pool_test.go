package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/crypt"
	"repro/internal/geo"
	"repro/internal/gps"
)

func TestProverPoolSharesMuxConn(t *testing.T) {
	_, ef, site := tcpFixture(t)
	addr, stop := startServer(t, &cloud.HonestProvider{Site: site}, false)
	defer stop()
	pool := &ProverPool{DialTimeout: time.Second}
	defer pool.Close()

	// Many sequential and concurrent borrows must all ride one dial.
	var wg sync.WaitGroup
	errs := make(chan error, 24)
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, release, err := pool.Get(addr)
			if err != nil {
				errs <- err
				return
			}
			_, err = conn.GetSegment(context.Background(), ef.FileID, uint64(i%int(ef.Layout.Segments)))
			release(err)
			if err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if d := pool.Dials(); d != 1 {
		t.Fatalf("pool dialed %d times, want 1", d)
	}
}

func TestProverPoolRedialsAfterConnDeath(t *testing.T) {
	_, ef, site := tcpFixture(t)
	addr, stop := startServer(t, &cloud.HonestProvider{Site: site}, false)
	defer stop()
	pool := &ProverPool{DialTimeout: time.Second}
	defer pool.Close()

	conn, release, err := pool.Get(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.GetSegment(context.Background(), ef.FileID, 0); err != nil {
		t.Fatal(err)
	}
	// Kill the pooled connection out from under the pool.
	conn.Close()
	release(nil)

	// The next borrow must health-check, discard the dead conn and
	// redial transparently.
	conn2, release2, err := pool.Get(addr)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := conn2.GetSegment(context.Background(), ef.FileID, 1)
	release2(err)
	if err != nil {
		t.Fatal(err)
	}
	if len(seg) != ef.Layout.SegmentSize() {
		t.Fatalf("segment size %d", len(seg))
	}
	if d := pool.Dials(); d != 2 {
		t.Fatalf("pool dialed %d times, want 2", d)
	}
}

func TestProverPoolEvictClosesWarmConns(t *testing.T) {
	_, ef, site := tcpFixture(t)
	addr, stop := startServer(t, &cloud.HonestProvider{Site: site}, false)
	defer stop()
	pool := &ProverPool{DialTimeout: time.Second}
	defer pool.Close()

	conn, release, err := pool.Get(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.GetSegment(context.Background(), ef.FileID, 0); err != nil {
		t.Fatal(err)
	}
	release(nil)
	if !conn.Healthy() {
		t.Fatal("warm conn unhealthy before eviction")
	}

	// Eviction must close the warm shared conn promptly — not leave it to
	// fail a later health-checked reuse.
	pool.Evict(addr)
	if conn.Healthy() {
		t.Fatal("evicted conn still reports healthy: it was not closed")
	}
	if _, err := conn.GetSegment(context.Background(), ef.FileID, 0); err == nil {
		t.Fatal("GetSegment on evicted conn succeeded")
	}

	// The address is not poisoned: the next borrow dials fresh.
	conn2, release2, err := pool.Get(addr)
	if err != nil {
		t.Fatal(err)
	}
	_, err = conn2.GetSegment(context.Background(), ef.FileID, 1)
	release2(err)
	if err != nil {
		t.Fatal(err)
	}
	if d := pool.Dials(); d != 2 {
		t.Fatalf("pool dialed %d times, want 2 (one before, one after eviction)", d)
	}
}

func TestProverPoolClosedGetFails(t *testing.T) {
	pool := &ProverPool{}
	pool.Close()
	if _, _, err := pool.Get("127.0.0.1:1"); err == nil {
		t.Fatal("Get on closed pool succeeded")
	}
}

func TestPooledRunnerWithScheduler(t *testing.T) {
	// End-to-end: the scheduler drives concurrent audits through a
	// PooledRunner; every audit shares the pool's warm mux connection.
	enc, ef, site := tcpFixture(t)
	addr, stop := startServer(t, &cloud.HonestProvider{Site: site}, false)
	defer stop()
	pool := &ProverPool{DialTimeout: time.Second}
	defer pool.Close()

	signer, _ := crypt.NewSigner()
	verifier, err := NewVerifier(signer, &gps.Receiver{True: geo.Brisbane}, nil)
	if err != nil {
		t.Fatal(err)
	}
	policy := DefaultPolicy(cloud.SLA{Center: geo.Brisbane, RadiusKm: 100})
	policy.TMax = time.Second
	tpa, err := NewTPA(enc, signer.Public(), policy)
	if err != nil {
		t.Fatal(err)
	}
	sched := NewScheduler(SchedulerConfig{Workers: 4, ProverWindow: 4, Timeout: 5 * time.Second})
	sched.RegisterTenant("acme", tpa)
	sched.RegisterProver("dc", &PooledRunner{Verifier: verifier, Addr: addr, Pool: pool})

	tasks := make([]AuditTask, 12)
	for i := range tasks {
		tasks[i] = AuditTask{Tenant: "acme", Prover: "dc", FileID: ef.FileID, Layout: ef.Layout, K: 8}
	}
	verdicts := sched.RunEpoch(context.Background(), tasks)
	for i, v := range verdicts {
		if v.Outcome != OutcomeAccepted {
			t.Fatalf("verdict %d: %s (%s)", i, v.Outcome, v.Err)
		}
	}
	if d := pool.Dials(); d != 1 {
		t.Fatalf("12 scheduled audits dialed %d times, want 1", d)
	}
}
