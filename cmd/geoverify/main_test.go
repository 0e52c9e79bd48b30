package main

import (
	"bytes"
	"context"
	"crypto/elliptic"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/blockfile"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/crypt"
	"repro/internal/disk"
	"repro/internal/geo"
	"repro/internal/gps"
	"repro/internal/meta"
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

// brisbaneSLA is the owner's contract in these tests: 100 km around
// Brisbane, spelled out rather than left to the flag's default.
var brisbaneSLA = fmt.Sprintf("%v,%v,100", geo.Brisbane.LatDeg, geo.Brisbane.LonDeg)

// prepared encodes a file the way geoprep does: the owner's sidecar on
// disk and the encoded copy on an in-process prover in Brisbane. It
// returns the sidecar's path, the prover's address and the layout.
func prepared(t *testing.T) (string, string, blockfile.Layout) {
	t.Helper()
	master := []byte("tpa-test-master")
	enc := por.NewEncoder(master)
	ef, err := enc.Encode("tpa-file", make([]byte, 64<<10))
	if err != nil {
		t.Fatal(err)
	}
	metaPath := filepath.Join(t.TempDir(), "data.meta.json")
	if err := meta.Save(metaPath, meta.Meta{
		Encoding: blockfile.EncodingVersion, FileID: ef.FileID,
		OrigBytes: ef.Layout.OrigBytes, Params: ef.Layout.Params,
		MasterKeyHex: hex.EncodeToString(master),
	}); err != nil {
		t.Fatal(err)
	}
	site := cloud.NewSite(cloud.DataCenter{Name: "bne", Position: geo.Brisbane, Disk: disk.WD2500JD}, 1)
	site.Store(ef.FileID, ef.Layout, ef.Data)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &core.ProverServer{Provider: &cloud.HonestProvider{Site: site}}
	go srv.Serve(lis)
	t.Cleanup(func() { srv.Close() })
	return metaPath, lis.Addr().String(), ef.Layout
}

// startDevice runs an in-process geoverifierd beside prover, its GPS
// reading at, and returns its address and its public key as -devices
// takes it.
func startDevice(t *testing.T, prover string, at geo.Position) (string, string) {
	t.Helper()
	signer, err := crypt.NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	verifier, err := core.NewVerifier(signer, &gps.Receiver{True: at}, nil)
	if err != nil {
		t.Fatal(err)
	}
	pool := &core.ProverPool{}
	t.Cleanup(func() { pool.Close() })
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &core.VerifierServer{Runner: &core.PooledRunner{Verifier: verifier, Addr: prover, Pool: pool}}
	go srv.Serve(lis)
	t.Cleanup(func() { srv.Close() })
	pub := signer.Public()
	return lis.Addr().String(), hex.EncodeToString(elliptic.MarshalCompressed(pub.Curve, pub.X, pub.Y))
}

// runTPA runs the command with args on a free status port and returns
// its stdout (the ledger), its log and its error.
func runTPA(t *testing.T, args ...string) (string, string, error) {
	t.Helper()
	defer slog.SetDefault(slog.Default())
	var out, logs bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- run(append([]string{"-status-addr", "127.0.0.1:0", "-period", "200ms"}, args...), &out, &logs)
	}()
	select {
	case err := <-done:
		return out.String(), logs.String(), err
	case <-time.After(20 * time.Second):
		t.Fatalf("geoverify %v did not end", args)
		return "", "", nil
	}
}

// ledgerRows parses the printed ledger into one field map per device.
func ledgerRows(ledger string) map[string]map[string]string {
	rows := make(map[string]map[string]string)
	for _, line := range strings.Split(ledger, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 2 || !strings.HasPrefix(fields[1], "audits=") {
			continue
		}
		row := make(map[string]string)
		for _, f := range fields[1:] {
			if k, v, ok := strings.Cut(f, "="); ok {
				row[k] = v
			}
		}
		rows[fields[0]] = row
	}
	return rows
}

// requireAllRejected checks that every device's audits were rejected
// and that every failed-audit log line names reason.
func requireAllRejected(t *testing.T, ledger, logs string, err error, devices int, reason string) {
	t.Helper()
	if err == nil {
		t.Fatalf("run succeeded with every audit rejected; ledger:\n%s", ledger)
	}
	rows := ledgerRows(ledger)
	if len(rows) != devices {
		t.Fatalf("ledger has %d devices, want %d:\n%s", len(rows), devices, ledger)
	}
	audits := 0
	for name, row := range rows {
		n, err := strconv.Atoi(row["audits"])
		if err != nil || n == 0 || row["rejected"] != row["audits"] {
			t.Fatalf("%s: %v, want every audit rejected", name, row)
		}
		audits += n
	}
	failed := 0
	for _, line := range strings.Split(logs, "\n") {
		if !strings.Contains(line, "audit failed") {
			continue
		}
		failed++
		if !strings.Contains(line, reason) {
			t.Fatalf("failed audit without %q: %s", reason, line)
		}
	}
	if failed != audits {
		t.Fatalf("%d failed-audit log lines for %d audits:\n%s", failed, audits, logs)
	}
}

// TestSLAIsTheOwners: a device whose GPS reads Perth, audited under the
// owner's Brisbane SLA, fails check 2 on every audit — the region is the
// TPA's input, never the device's own position.
func TestSLAIsTheOwners(t *testing.T) {
	metaPath, prover, _ := prepared(t)
	addr, key := startDevice(t, prover, geo.Perth)
	ledger, logs, err := runTPA(t, "-meta", metaPath, "-devices", addr+"="+key,
		"-sla", brisbaneSLA, "-epochs", "1", "-tenants", "2", "-k", "4")
	requireAllRejected(t, ledger, logs, err, 1, "outside SLA region")
}

// TestDeviceKeyBoundToProver: two honest devices registered with each
// other's keys. Every transcript carries a valid signature, but not by
// the device it was asked of, so every audit is rejected.
func TestDeviceKeyBoundToProver(t *testing.T) {
	metaPath, prover, _ := prepared(t)
	a, keyA := startDevice(t, prover, geo.Brisbane)
	b, keyB := startDevice(t, prover, geo.Brisbane)
	ledger, logs, err := runTPA(t, "-meta", metaPath, "-devices", a+"="+keyB+","+b+"="+keyA,
		"-sla", brisbaneSLA, "-epochs", "1", "-tenants", "2", "-k", "4")
	requireAllRejected(t, ledger, logs, err, 2, "transcript signature invalid")
}

// TestEpochsExitStatus: a bounded run succeeds when every audit is
// accepted and fails, after printing the ledger, when any is not.
func TestEpochsExitStatus(t *testing.T) {
	metaPath, prover, _ := prepared(t)
	addr, key := startDevice(t, prover, geo.Brisbane)
	args := []string{"-meta", metaPath, "-devices", addr + "=" + key, "-sla", brisbaneSLA,
		"-epochs", "1", "-tenants", "2", "-k", "4"}
	ledger, _, err := runTPA(t, args...)
	if err != nil {
		t.Fatalf("honest run failed: %v\n%s", err, ledger)
	}
	if row := ledgerRows(ledger)[addr]; row["audits"] != "2" || row["ok"] != "2" {
		t.Fatalf("honest ledger %v, want audits=2 ok=2", row)
	}
	// A Δt_max no round can meet rejects every audit on timing.
	ledger, logs, err := runTPA(t, append(args, "-tmax", "1ns")...)
	requireAllRejected(t, ledger, logs, err, 1, "exceeds Δt_max")
	if !strings.Contains(err.Error(), "2 of 2 audits not accepted") {
		t.Fatalf("error %q does not count the rejected audits", err)
	}
}

// TestRefusesUnrunnableFleet: a fleet with no tenants never completes a
// cycle, and k outside [1, segments] never makes a request, so both are
// refused at startup, naming the flag, instead of running forever or
// failing every audit.
func TestRefusesUnrunnableFleet(t *testing.T) {
	metaPath, prover, layout := prepared(t)
	addr, key := startDevice(t, prover, geo.Brisbane)
	devices := addr + "=" + key
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"-tenants", []string{"-tenants", "0"}},
		{"-k", []string{"-k", "0"}},
		{"-k", []string{"-k", fmt.Sprint(layout.Segments + 1)}},
		{"-devices", []string{"-devices", ""}},
	} {
		args := append([]string{"-meta", metaPath, "-devices", devices, "-epochs", "1"}, tc.args...)
		_, _, err := runTPA(t, args...)
		if err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Fatalf("%v: error %v, want one naming %s", tc.args, err, tc.flag)
		}
	}
}
