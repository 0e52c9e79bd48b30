package repro

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
)

// The daemon tests run the four binaries that ship — geoprep, geoproofd,
// geoverifierd and geoverify, built once per test binary — as an
// operator would: on loopback ports the kernel picks, read back from each
// daemon's own log line, with the verifier device's key from its stdout.
// They check exit statuses, the ledger geoverify -epochs prints, and the
// /status and /metrics endpoints.

// shipped holds the built binaries; TestMain removes the directory.
var shipped struct {
	once sync.Once
	dir  string
	err  error
}

func TestMain(m *testing.M) {
	code := m.Run()
	if shipped.dir != "" {
		os.RemoveAll(shipped.dir)
	}
	os.Exit(code)
}

// binary returns the path of the named command, building all four with
// the go tool on first use. A missing go tool fails the test.
func binary(t *testing.T, name string) string {
	t.Helper()
	shipped.once.Do(func() {
		if shipped.dir, shipped.err = os.MkdirTemp("", "geoproof-bin-"); shipped.err != nil {
			return
		}
		out, err := exec.Command("go", "build", "-o", shipped.dir+string(filepath.Separator),
			"./cmd/geoprep", "./cmd/geoproofd", "./cmd/geoverifierd", "./cmd/geoverify").CombinedOutput()
		if err != nil {
			shipped.err = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if shipped.err != nil {
		t.Fatal(shipped.err)
	}
	return filepath.Join(shipped.dir, name)
}

// syncBuffer collects a process's stdout and stderr, which its output
// goroutines write while the test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *syncBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

func (l *syncBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// proc is one daemon running under a test; the test's cleanup kills it.
type proc struct {
	name string
	cmd  *exec.Cmd
	out  syncBuffer
	done chan struct{} // closed once the process has exited
	err  error         // Wait's result, set before done closes
}

func start(t *testing.T, name string, args ...string) *proc {
	t.Helper()
	p := &proc{name: name, cmd: exec.Command(binary(t, name), args...), done: make(chan struct{})}
	p.cmd.Stdout = &p.out
	p.cmd.Stderr = &p.out
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		p.err = p.cmd.Wait()
		close(p.done)
	}()
	t.Cleanup(p.kill)
	return p
}

func (p *proc) kill() {
	_ = p.cmd.Process.Kill() // fails only once the process has exited
	<-p.done
}

// await waits for the process to print a line matching re and returns
// the match's first group.
func (p *proc) await(t *testing.T, re *regexp.Regexp) string {
	t.Helper()
	deadline := time.After(20 * time.Second)
	for {
		exited := false
		select {
		case <-p.done:
			exited = true
		case <-deadline:
			t.Fatalf("%s printed no line matching %q in 20 s:\n%s", p.name, re, p.out.String())
		case <-time.After(10 * time.Millisecond):
		}
		if m := re.FindStringSubmatch(p.out.String()); m != nil {
			return m[1]
		}
		if exited {
			t.Fatalf("%s exited (%v) before printing a line matching %q:\n%s", p.name, p.err, re, p.out.String())
		}
	}
}

var (
	proverAddrRe = regexp.MustCompile(`msg=serving .*addr=(\S+)`)
	statusAddrRe = regexp.MustCompile(`msg="status API serving" addr=(\S+)`)
	deviceAddrRe = regexp.MustCompile(`msg="verifier device serving" addr=(\S+)`)
	deviceKeyRe  = regexp.MustCompile(`verifier public key \(register with TPA\): ([0-9a-f]+)`)
	controllerRe = regexp.MustCompile(`msg="fleet controller starting" .*statusAPI=(http://\S+)/status`)
)

// runLimit bounds a geoverify -epochs run and a geoproofd that should
// refuse to start.
const runLimit = time.Minute

// prepare writes 256 KiB into dir and runs geoprep on it, returning the
// store directory and the owner's sidecar.
func prepare(t *testing.T, dir string) (storeDir, metaPath string) {
	t.Helper()
	in := filepath.Join(dir, "data.bin")
	if err := os.WriteFile(in, benchData(256<<10), 0o644); err != nil {
		t.Fatal(err)
	}
	storeDir, metaPath = filepath.Join(dir, "data.store"), filepath.Join(dir, "data.meta.json")
	if out, err := exec.Command(binary(t, "geoprep"), "-in", in, "-store", storeDir, "-meta", metaPath).CombinedOutput(); err != nil {
		t.Fatalf("geoprep: %v\n%s", err, out)
	}
	return storeDir, metaPath
}

// startProver runs geoproofd on storeDir and returns it with its listen
// address. args follow the defaults, so an -addr among them overrides
// the kernel-picked port.
func startProver(t *testing.T, storeDir string, args ...string) (*proc, string) {
	t.Helper()
	p := start(t, "geoproofd", append([]string{"-store", storeDir, "-addr", "127.0.0.1:0"}, args...)...)
	return p, p.await(t, proverAddrRe)
}

// portOutsideEphemeral returns a free loopback address whose port lies
// outside the kernel's ephemeral range. The kernel never picks such a port
// as the source of an outgoing connection, so a daemon stopped on it can
// listen there again.
func portOutsideEphemeral(t *testing.T) string {
	t.Helper()
	low, high := 32768, 60999 // Linux's defaults
	if b, err := os.ReadFile("/proc/sys/net/ipv4/ip_local_port_range"); err == nil {
		if f := strings.Fields(string(b)); len(f) == 2 {
			l, errL := strconv.Atoi(f[0])
			h, errH := strconv.Atoi(f[1])
			if errL == nil && errH == nil {
				low, high = l, h
			}
		}
	}
	var ports []int
	for port := 1024; port <= 65535; port++ {
		if port < low || port > high {
			ports = append(ports, port)
		}
	}
	rand.Shuffle(len(ports), func(i, j int) { ports[i], ports[j] = ports[j], ports[i] })
	for _, port := range ports[:min(len(ports), 100)] {
		addr := net.JoinHostPort("127.0.0.1", strconv.Itoa(port))
		if l, err := net.Listen("tcp", addr); err == nil {
			l.Close()
			return addr
		}
	}
	t.Fatalf("no free port outside the ephemeral range %d–%d", low, high)
	return ""
}

// startDevice runs a geoverifierd beside prover and returns its
// -devices entry, addr=key.
func startDevice(t *testing.T, prover string, args ...string) string {
	t.Helper()
	p := start(t, "geoverifierd", append([]string{"-addr", "127.0.0.1:0", "-prover", prover}, args...)...)
	key := p.await(t, deviceKeyRe)
	return p.await(t, deviceAddrRe) + "=" + key
}

// ledgerRow is one device line of the ledger geoverify -epochs prints:
// the ledger cell it renders and the distance its worst round trip
// implies.
type ledgerRow struct {
	core.LedgerEntry
	ImpliedKm float64
}

// geoverifyEpochs runs geoverify -epochs to its end and returns the
// ledger it printed, its log and its exit error.
func geoverifyEpochs(t *testing.T, args ...string) (map[string]ledgerRow, string, error) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	cmd := exec.CommandContext(ctx, binary(t, "geoverify"), append([]string{"-status-addr", "127.0.0.1:0"}, args...)...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	return parseLedger(t, stdout.String()), stdout.String() + stderr.String(), err
}

// parseLedger reads the per-device lines geoverify -epochs prints back
// into the ledger cells they render.
func parseLedger(t *testing.T, out string) map[string]ledgerRow {
	t.Helper()
	rows := make(map[string]ledgerRow)
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if !strings.Contains(line, " audits=") {
			continue
		}
		var e ledgerRow
		line, e.LastReason, _ = strings.Cut(line, " last: ")
		var name, rtt string
		if _, err := fmt.Sscanf(line, "%s audits=%d ok=%d rejected=%d timeout=%d error=%d maxRTT=%s implied=%fkm",
			&name, &e.Audits, &e.Accepted, &e.Rejected, &e.Timeouts, &e.Errors, &rtt, &e.ImpliedKm); err != nil {
			t.Fatalf("ledger line %q: %v", line, err)
		}
		var err error
		if e.MaxRTT, err = time.ParseDuration(rtt); err != nil {
			t.Fatalf("ledger line %q: %v", line, err)
		}
		rows[name] = e
	}
	return rows
}

// requireAccepted fails unless the ledger holds exactly the devices
// named, each with at least min audits and every one of them accepted.
func requireAccepted(t *testing.T, rows map[string]ledgerRow, log string, min int, devices ...string) {
	t.Helper()
	if len(rows) != len(devices) {
		t.Fatalf("ledger has %d rows, want %d:\n%s", len(rows), len(devices), log)
	}
	for _, d := range devices {
		e, ok := rows[d]
		if !ok || e.Audits < min || e.Accepted != e.Audits {
			t.Fatalf("device %s: ledger %+v, want ≥ %d audits, all accepted:\n%s", d, e, min, log)
		}
	}
}

// deviceAddr is the address part of a -devices entry.
func deviceAddr(entry string) string {
	addr, _, _ := strings.Cut(entry, "=")
	return addr
}

// get fetches url and returns its body, failing on anything but 200.
func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s\n%s", url, resp.Status, body)
	}
	return body
}

// scrape reads the /metrics page of the status API at base into its
// sample values, keyed by name and labels as printed, and the families
// its # TYPE lines declare.
func scrape(t *testing.T, base string) (samples map[string]float64, families map[string]bool) {
	t.Helper()
	samples, families = make(map[string]float64), make(map[string]bool)
	sc := bufio.NewScanner(bytes.NewReader(get(t, base+"/metrics")))
	for sc.Scan() {
		line := sc.Text()
		if fam, ok := strings.CutPrefix(line, "# TYPE "); ok {
			families[strings.Fields(fam)[0]] = true
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("metrics line %q: %v", line, err)
		}
		samples[line[:i]] = v
	}
	return samples, families
}

// status decodes the controller's /status JSON.
func status(t *testing.T, url string) core.FleetStatus {
	t.Helper()
	var st core.FleetStatus
	if err := json.Unmarshal(get(t, url), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestDaemonStoreBacked: geoprep writes a store, geoproofd reopens it, a
// geoverifierd beside it times the rounds, and geoverify -epochs 2
// accepts every audit. A copy of the store relabelled format version 1
// makes geoproofd exit 1 before it serves.
func TestDaemonStoreBacked(t *testing.T) {
	dir := t.TempDir()
	storeDir, metaPath := prepare(t, dir)
	_, prover := startProver(t, storeDir)
	device := startDevice(t, prover)
	rows, log, err := geoverifyEpochs(t, "-epochs", "2", "-period", "200ms", "-meta", metaPath,
		"-devices", device, "-tenants", "4", "-k", "8")
	if err != nil {
		t.Fatalf("geoverify: %v\n%s", err, log)
	}
	requireAccepted(t, rows, log, 8, deviceAddr(device))

	v1 := filepath.Join(dir, "v1.store")
	copyDir(t, storeDir, v1)
	man := filepath.Join(v1, "manifest.json")
	b, err := os.ReadFile(man)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(man, bytes.Replace(b, []byte(`"version": 2`), []byte(`"version": 1`), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	p := start(t, "geoproofd", "-store", v1, "-addr", "127.0.0.1:0")
	select {
	case <-p.done:
	case <-time.After(runLimit):
		t.Fatalf("geoproofd is serving a format version 1 store:\n%s", p.out.String())
	}
	var exit *exec.ExitError
	if !errors.As(p.err, &exit) || exit.ExitCode() != 1 || !strings.Contains(p.out.String(), "format version 1") {
		t.Fatalf("geoproofd on a version 1 store: %v, want exit status 1 naming the version:\n%s", p.err, p.out.String())
	}
}

// copyDir copies the regular files of src, a store directory, into dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDaemonThreeParty: two geoverifierd devices beside one geoproofd,
// each registered with its own key, audited by one geoverify over the
// TPA → device mux hop. Every audit is accepted under its device's key,
// and each device costs the prover one connection.
func TestDaemonThreeParty(t *testing.T) {
	storeDir, metaPath := prepare(t, t.TempDir())
	proverProc, prover := startProver(t, storeDir, "-status-addr", "127.0.0.1:0")
	proverStatus := "http://" + proverProc.await(t, statusAddrRe)
	a, b := startDevice(t, prover), startDevice(t, prover)
	// Two TPA sessions, one after the other: each device keeps its one
	// prover connection across both.
	for run := 1; run <= 2; run++ {
		rows, log, err := geoverifyEpochs(t, "-epochs", "1", "-tenants", "2", "-k", "8", "-tmax", "200ms",
			"-meta", metaPath, "-devices", a+","+b)
		if err != nil {
			t.Fatalf("geoverify run %d: %v\n%s", run, err, log)
		}
		requireAccepted(t, rows, log, 2, deviceAddr(a), deviceAddr(b))
	}
	samples, _ := scrape(t, proverStatus)
	if n := samples["geoproof_prover_conns_total"]; n != 2 {
		t.Errorf("geoproof_prover_conns_total = %v after two TPA sessions, want 2: one per device", n)
	}
}

// TestDaemonHonesty: geoproofd sleeps a WD2500JD look-up per round and
// geoverify audits it through its device at the default Δt_max of
// 50 ms; the honest prover is accepted, its ledger line states a finite
// implied distance, and its look-up lateness histogram holds one sample
// per segment request.
func TestDaemonHonesty(t *testing.T) {
	storeDir, metaPath := prepare(t, t.TempDir())
	proverProc, prover := startProver(t, storeDir, "-simulate", "-disk", "wd2500jd", "-status-addr", "127.0.0.1:0")
	proverStatus := "http://" + proverProc.await(t, statusAddrRe)
	device := startDevice(t, prover)
	rows, log, err := geoverifyEpochs(t, "-epochs", "1", "-meta", metaPath, "-devices", device, "-tenants", "2", "-k", "20")
	if err != nil {
		t.Fatalf("geoverify: %v\n%s", err, log)
	}
	requireAccepted(t, rows, log, 2, deviceAddr(device))
	row := rows[deviceAddr(device)]
	t.Logf("max RTT %v against Δt_max 50ms implies %.1f km", row.MaxRTT, row.ImpliedKm)
	if math.IsNaN(row.ImpliedKm) || math.IsInf(row.ImpliedKm, 0) || row.ImpliedKm < 0 {
		t.Errorf("implied distance %v km, want finite and ≥ 0:\n%s", row.ImpliedKm, log)
	}
	samples, _ := scrape(t, proverStatus)
	late, segments := samples["geoproof_prover_lookup_late_seconds_count"], samples[`geoproof_prover_requests_total{type="segment"}`]
	if late < 1 || late != segments {
		t.Errorf("look-up lateness samples %v, segment requests %v: want one sample per request", late, segments)
	}
}

// TestDaemonFleetController: geoverify runs as the fleet controller over
// three geoverifierd devices, each beside its own geoproofd. Once every
// device has shown accepted audits on /status, one prover is killed and
// another's live store is bit-rotted; the health matrix must reach
// quarantined / quarantined / healthy, and once the killed prover is
// restarted, healthy / quarantined / healthy.
func TestDaemonFleetController(t *testing.T) {
	dir := t.TempDir()
	storeDir, metaPath := prepare(t, dir)
	var stores, devices [3]string
	var first *proc
	var firstAddr string
	for i := range stores {
		stores[i] = filepath.Join(dir, fmt.Sprintf("store-%d", i+1))
		copyDir(t, storeDir, stores[i])
		// The first prover is restarted on its address, so that port
		// must be one no outgoing connection can take meanwhile.
		listen := "127.0.0.1:0"
		if i == 0 {
			listen = portOutsideEphemeral(t)
		}
		p, addr := startProver(t, stores[i], "-status-addr", "127.0.0.1:0", "-addr", listen)
		if i == 0 {
			first, firstAddr = p, addr
		}
		devices[i] = startDevice(t, addr)
	}
	proverStatus := "http://" + first.await(t, statusAddrRe)
	ctl := start(t, "geoverify", "-meta", metaPath, "-devices", strings.Join(devices[:], ","),
		"-status-addr", "127.0.0.1:0", "-period", "100ms", "-tenants", "2", "-k", "8", "-timeout", "2s")
	api := ctl.await(t, controllerRe)
	dev := func(i int) string { return deviceAddr(devices[i]) }

	// waitHealth polls /status until each device's health is as listed,
	// failing the test if an audit was not accepted while all is up.
	waitHealth := func(timeout time.Duration, requireClean bool, want ...string) {
		t.Helper()
		deadline := time.Now().Add(timeout)
		for {
			st := status(t, api+"/status")
			got := make([]string, len(devices))
			for i := range devices {
				for _, p := range st.Provers {
					if p.Name == dev(i) {
						got[i] = p.Health
					}
				}
			}
			ready := strings.Join(got, " ") == strings.Join(want, " ")
			if requireClean {
				// Every device starts healthy, so health alone says
				// nothing until each has an accepted audit on its row.
				ready = ready && len(st.Ledger) == len(devices)
				for _, row := range st.Ledger {
					if row.Accepted != row.Audits {
						t.Fatalf("device %s: %d of %d audits not accepted before any fault: %s\n%s",
							row.Name, row.Audits-row.Accepted, row.Audits, row.LastReason, ctl.out.String())
					}
					ready = ready && row.Audits >= 1
				}
			}
			if ready {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("health %v after %v, want %v; ledger %+v\n%s", got, timeout, want, st.Ledger, ctl.out.String())
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	waitHealth(15*time.Second, true, "healthy", "healthy", "healthy")

	// The controller's telemetry: every instrumented subsystem it links
	// has its families, the tracer already holds completed audits, write
	// methods bounce, and ?prover= narrows the status to one device.
	_, families := scrape(t, api)
	for _, fam := range []string{
		"geoproof_sched_verdicts_total", "geoproof_sched_audit_seconds",
		"geoproof_sched_inflight_audits", "geoproof_pool_gets_total",
		"geoproof_pool_dials_total", "geoproof_mux_frames_written_total",
		"geoproof_mux_challenge_writes_total",
		"geoproof_fleet_transitions_total",
	} {
		if !families[fam] {
			t.Errorf("controller /metrics lacks family %s", fam)
		}
	}
	var audits struct{ Audits []json.RawMessage }
	if err := json.Unmarshal(get(t, api+"/debug/audits"), &audits); err != nil || len(audits.Audits) == 0 {
		t.Errorf("/debug/audits holds %d audits (%v), want some", len(audits.Audits), err)
	}
	resp, err := http.Post(api+"/metrics", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics: %s, want 405", resp.Status)
	}
	if st := status(t, api+"/status?prover="+dev(0)); len(st.Provers) != 1 || st.Provers[0].Name != dev(0) || len(st.Ledger) != 1 {
		t.Errorf("/status?prover=%s: %d provers, %d ledger rows, want one of each", dev(0), len(st.Provers), len(st.Ledger))
	}
	// The prover's own telemetry: each round is one segment request, its
	// replies leave in socket writes, and its store serves them by pread.
	samples, _ := scrape(t, proverStatus)
	for _, name := range []string{`geoproof_prover_requests_total{type="segment"}`, "geoproof_prover_reply_writes_total", "geoproof_store_preads_total"} {
		if samples[name] < 1 {
			t.Errorf("prover /metrics: %s = %v, want ≥ 1", name, samples[name])
		}
	}

	// Faults: kill the first prover — its device's audits fail — and
	// bit-rot the second's live store.
	first.kill()
	shard, err := os.OpenFile(filepath.Join(stores[1], "shard-00000.bin"), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shard.WriteAt(benchData(200<<10), 10<<10); err != nil {
		t.Fatal(err)
	}
	if err := shard.Close(); err != nil {
		t.Fatal(err)
	}
	waitHealth(45*time.Second, false, "quarantined", "quarantined", "healthy")

	// Recovery: the restarted prover's device leaves quarantine for
	// probation, and a clean streak restores it.
	start(t, "geoproofd", "-store", stores[0], "-addr", firstAddr).await(t, proverAddrRe)
	waitHealth(60*time.Second, false, "healthy", "quarantined", "healthy")

	if err := ctl.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	<-ctl.done
	if ctl.err != nil {
		t.Fatalf("geoverify after SIGTERM: %v\n%s", ctl.err, ctl.out.String())
	}
}
