// Command geoverify is the TPA of a live GeoProof deployment (paper
// Fig. 4, §V-B) and its fleet control plane. It never times a round: it
// sends each audit request to the geoverifierd beside the audited prover
// (-devices addr=vkeyhex,…) and verifies the transcript that comes back
// under that device's registered key, against the owner's sidecar
// (-meta) and the owner's SLA region (-sla lat,lon,km): signature,
// position, indices, MACs and the Δt_max bound.
//
// The core.FleetController re-audits every device on a jittered period
// for many simulated tenants — bounded in-flight window per device,
// round-robin tenant fairness, per-attempt timeout and retry — pings the
// devices between audits, escalates, quarantines and readmits failing
// ones on fixed thresholds, logs every failed audit with its reasons, and
// serves the health matrix and verdict ledger as JSON over HTTP (GET
// /status on -status-addr). It runs until signalled, or with -epochs N
// until every device has run N audit cycles; it then prints the
// per-device ledger and exits, with status 1 if any audit was not
// accepted. A one-shot audit is -epochs 1 -tenants 1.
//
// Usage:
//
//	geoverify -meta data.meta.json -devices host:9342=<hex>,host2:9342=<hex> \
//	    [-sla -27.4698,153.0251,100] [-epochs 0] [-status-addr 127.0.0.1:9343] \
//	    [-period 10s] [-period-jitter 0.2] [-probe-period 2s] [-retain 8] \
//	    [-tenants 8] [-k 20] [-tmax 50ms] [-window 2] [-timeout 5s] [-retries 1] [-j 8]
package main

import (
	"context"
	"crypto/ecdsa"
	"crypto/elliptic"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/meta"
	"repro/internal/por"
	"repro/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "geoverify:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("geoverify", flag.ExitOnError)
	fs.SetOutput(stderr)
	var o schedOpts
	fs.StringVar(&o.metaPath, "meta", "", "metadata sidecar from geoprep")
	devices := fs.String("devices", "", "comma-separated verifier devices (geoverifierd), each addr=vkeyhex with the key the device printed at startup")
	sla := fs.String("sla", fmt.Sprintf("%v,%v,100", geo.Brisbane.LatDeg, geo.Brisbane.LonDeg),
		"the owner's SLA region: centre latitude, longitude and radius in km")
	fs.StringVar(&o.statusAddr, "status-addr", "127.0.0.1:9343", "status API listen address")
	fs.DurationVar(&o.period, "period", 10*time.Second, "base per-device re-audit period")
	fs.Float64Var(&o.periodJitter, "period-jitter", 0.2, "fraction of the period to jitter each cycle by, in [0,1]")
	fs.DurationVar(&o.probePeriod, "probe-period", 2*time.Second, "liveness-probe interval between full audits, 0 = off")
	fs.Uint64Var(&o.retain, "retain", 8, "epochs of per-epoch ledger detail to keep; older epochs fold into archive cells, 0 = keep all")
	fs.IntVar(&o.tenants, "tenants", 8, "simulated tenants sharing the file")
	fs.Uint64Var(&o.epochs, "epochs", 0, "audit cycles per device before it leaves and, once none is left, the command exits; 0 = run until signalled")
	fs.IntVar(&o.k, "k", 20, "timed challenge rounds per audit")
	fs.DurationVar(&o.tmax, "tmax", 50*time.Millisecond, "per-round acceptance bound Δt_max")
	fs.IntVar(&o.window, "window", 2, "max in-flight audits per device")
	fs.DurationVar(&o.timeout, "timeout", 5*time.Second, "per-attempt audit deadline")
	fs.IntVar(&o.retries, "retries", 1, "retries after a transport failure or timeout")
	fs.IntVar(&o.workers, "j", 0, "concurrent audits across all devices, 0 = NumCPU")
	logLevel := fs.String("log-level", "info", "log verbosity: debug, info, warn, error")
	logJSON := fs.Bool("log-json", false, "emit logs as JSON instead of text")
	fs.BoolVar(&o.pprofOn, "pprof", false, "expose net/http/pprof under /debug/pprof/ on the status API")
	fs.IntVar(&o.traceRetain, "trace-retain", 256, "completed audit traces retained for /debug/audits")
	fs.Parse(args)

	logger, err := telemetry.NewLogger(stderr, *logLevel, *logJSON)
	if err != nil {
		return err
	}
	slog.SetDefault(logger)

	if o.devices, err = parseDevices(*devices); err != nil {
		return err
	}
	if o.sla, err = parseSLA(*sla); err != nil {
		return err
	}
	return runController(o, stdout)
}

// device is one registered verifier device: where it listens and the
// key its transcripts must verify under.
type device struct {
	addr string
	key  *ecdsa.PublicKey
}

// parseDevices reads -devices: addr=vkeyhex entries, comma-separated.
func parseDevices(s string) ([]device, error) {
	if s == "" {
		return nil, errors.New("-devices is required: addr=vkeyhex for each geoverifierd, with the key it printed at startup")
	}
	var devs []device
	seen := make(map[string]bool)
	for _, entry := range strings.Split(s, ",") {
		addr, keyHex, ok := strings.Cut(strings.TrimSpace(entry), "=")
		if !ok || addr == "" {
			return nil, fmt.Errorf("-devices entry %q: want addr=vkeyhex", entry)
		}
		if seen[addr] {
			return nil, fmt.Errorf("-devices lists %s twice", addr)
		}
		seen[addr] = true
		raw, err := hex.DecodeString(keyHex)
		if err != nil {
			return nil, fmt.Errorf("-devices entry %q: decode key: %w", entry, err)
		}
		x, y := elliptic.UnmarshalCompressed(elliptic.P256(), raw)
		if x == nil {
			return nil, fmt.Errorf("-devices entry %q: not a compressed P-256 key", entry)
		}
		devs = append(devs, device{addr: addr, key: &ecdsa.PublicKey{Curve: elliptic.P256(), X: x, Y: y}})
	}
	return devs, nil
}

// parseSLA reads -sla: the region's centre latitude and longitude in
// degrees and its radius in km.
func parseSLA(s string) (cloud.SLA, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 3 {
		return cloud.SLA{}, fmt.Errorf("-sla %q: want lat,lon,km", s)
	}
	var v [3]float64
	for i, p := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return cloud.SLA{}, fmt.Errorf("-sla %q: %w", s, err)
		}
		v[i] = f
	}
	if v[0] < -90 || v[0] > 90 || v[1] < -180 || v[1] > 180 || !(v[2] > 0) {
		return cloud.SLA{}, fmt.Errorf("-sla %q: want latitude in [-90,90], longitude in [-180,180] and a positive radius", s)
	}
	return cloud.SLA{Center: geo.Position{LatDeg: v[0], LonDeg: v[1]}, RadiusKm: v[2]}, nil
}

// deviceRunner ships each audit to one verifier device over the pool's
// warm connection to it; the device times the rounds.
type deviceRunner struct {
	pool *core.ProverPool
	addr string
}

func (r deviceRunner) RunAudit(ctx context.Context, req core.AuditRequest) (core.SignedTranscript, error) {
	conn, release, err := r.pool.Get(r.addr)
	if err != nil {
		return core.SignedTranscript{}, fmt.Errorf("device conn: %w", err)
	}
	st, err := conn.RunAudit(ctx, req)
	release(err)
	return st, err
}

type schedOpts struct {
	metaPath string
	devices  []device
	sla      cloud.SLA
	tenants  int
	epochs   uint64
	k        int
	tmax     time.Duration
	window   int
	timeout  time.Duration
	retries  int
	workers  int
	retain   uint64

	statusAddr   string
	period       time.Duration
	periodJitter float64
	probePeriod  time.Duration
	pprofOn      bool
	traceRetain  int
}

// runController makes the process the fleet's self-driving control
// plane. Every device is continuously re-audited on a jittered period and
// pinged between audits; failing devices are escalated, quarantined and
// rehabilitated by the core.FleetController state machine; and the whole
// health matrix is served as JSON over HTTP. With o.epochs > 0 it stops
// once every device has run that many cycles, prints the ledger, and
// fails if any audit was not accepted.
func runController(o schedOpts, stdout io.Writer) error {
	if o.tenants < 1 {
		return fmt.Errorf("-tenants %d: want at least 1", o.tenants)
	}
	if o.periodJitter < 0 || o.periodJitter > 1 {
		return fmt.Errorf("-period-jitter %v: want a fraction in [0,1]", o.periodJitter)
	}
	if o.metaPath == "" {
		return fmt.Errorf("-meta is required (the sidecar written by geoprep)")
	}
	m, err := meta.Load(o.metaPath)
	if err != nil {
		return err
	}
	layout, err := m.Layout()
	if err != nil {
		return err
	}
	if o.k < 1 || int64(o.k) > layout.Segments {
		return fmt.Errorf("-k %d: want 1 to %d, the file's segments", o.k, layout.Segments)
	}
	master, err := m.MasterKey()
	if err != nil {
		return err
	}
	enc := por.NewEncoder(master).WithParams(m.Params)
	policy := core.DefaultPolicy(o.sla)
	policy.TMax = o.tmax

	pool := &core.ProverPool{DialTimeout: o.timeout}
	defer pool.Close()
	// nil clock = wall clock; the tracer's ring feeds /debug/audits.
	tracer := telemetry.NewAuditTracer(o.traceRetain, nil)
	ctl := core.NewFleetController(core.FleetConfig{
		Scheduler: core.SchedulerConfig{
			Workers:      o.workers,
			ProverWindow: o.window,
			Timeout:      o.timeout,
			Retries:      o.retries,
			Tracer:       tracer,
			// Live feed: failures log as they land; acceptances stay quiet.
			OnVerdict: func(v core.Verdict) {
				if v.Outcome == core.OutcomeAccepted {
					return
				}
				detail := v.Err
				if v.Outcome == core.OutcomeRejected {
					detail = v.Report.Reason()
				}
				slog.Warn("audit failed",
					"tenant", v.Task.Tenant, "device", v.Task.Prover,
					"outcome", v.Outcome.String(), "detail", detail,
					"attempts", v.Attempts)
			},
		},
		AuditPeriod:  o.period,
		AuditJitter:  o.periodJitter,
		ProbePeriod:  o.probePeriod,
		ProbeTimeout: o.timeout,
		RetainEpochs: o.retain,
		Pool:         pool,
		OnTransition: func(device string, from, to core.Health, reason string) {
			slog.Info("device health transition",
				"device", device, "from", from.String(), "to", to.String(), "reason", reason)
		},
	})
	defer ctl.Close()

	// One TPA per device, so a transcript verifies only under the key
	// registered for the device it was asked of; each device's tenants
	// map to its TPA.
	for _, dev := range o.devices {
		tpa, err := core.NewTPA(enc, dev.key, policy)
		if err != nil {
			return err
		}
		var tasks []core.AuditTask
		for t := 0; t < o.tenants; t++ {
			tenant := fmt.Sprintf("tenant-%03d@%s", t, dev.addr)
			ctl.RegisterTenant(tenant, tpa)
			tasks = append(tasks, core.AuditTask{
				Tenant: tenant, FileID: m.FileID, Layout: layout, K: o.k,
			})
		}
		err = ctl.Register(dev.addr, core.ProverSpec{
			Runner: deviceRunner{pool: pool, addr: dev.addr},
			Probe:  core.PoolProbe(pool, dev.addr),
			Addr:   dev.addr,
			Tasks:  tasks,
		})
		if err != nil {
			return err
		}
	}

	mux := http.NewServeMux()
	// ?prover=addr narrows the health matrix and ledger to one device —
	// what an operator paged for a single site actually wants to watch.
	mux.Handle("/status", telemetry.JSONHandler(func(r *http.Request) any {
		st := ctl.Status()
		if p := r.URL.Query().Get("prover"); p != "" {
			st = filterStatus(st, p)
		}
		return st
	}))
	mux.Handle("/healthz", telemetry.HealthzHandler())
	mux.Handle("/metrics", telemetry.MetricsHandler(telemetry.Default))
	mux.Handle("/debug/audits", tracer.Handler())
	if o.pprofOn {
		// The status mux is not http.DefaultServeMux, so the pprof
		// handlers must be mounted explicitly.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	lis, err := net.Listen("tcp", o.statusAddr)
	if err != nil {
		return fmt.Errorf("status API listen: %w", err)
	}
	httpSrv := &http.Server{Handler: mux}
	go httpSrv.Serve(lis)
	defer httpSrv.Close()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	slog.Info("fleet controller starting",
		"devices", len(o.devices), "tenants", o.tenants, "epochs", o.epochs,
		"period", o.period, "jitter", o.periodJitter,
		"probePeriod", o.probePeriod,
		"statusAPI", "http://"+lis.Addr().String()+"/status",
		"pprof", o.pprofOn)
	if err := runFleet(ctx, ctl, o.epochs); err != nil && !errors.Is(err, context.Canceled) {
		return err
	}
	slog.Info("fleet controller shut down")
	if o.epochs == 0 {
		return nil
	}
	rows := ctl.Ledger().TotalsByProver()
	printLedger(stdout, rows)
	var audits, accepted int
	for _, row := range rows {
		audits += row.Audits
		accepted += row.Accepted
	}
	if accepted != audits {
		return fmt.Errorf("%d of %d audits not accepted", audits-accepted, audits)
	}
	return nil
}

// runFleet runs ctl until ctx is done or, with epochs > 0, until every
// prover has retired after that many audit cycles.
func runFleet(ctx context.Context, ctl *core.FleetController, epochs uint64) error {
	if epochs == 0 {
		return ctl.Run(ctx)
	}
	ctx, stop := context.WithCancel(ctx)
	defer stop()
	retired := make(chan struct{})
	go func() {
		defer close(retired)
		retireAfter(ctx, ctl, epochs)
		stop()
	}()
	err := ctl.Run(ctx)
	stop()
	<-retired
	return err
}

// retireAfter deregisters each prover gracefully once it has run n audit
// cycles — a cycle in flight finishes and no new one starts, so nothing
// cancelled reaches the ledger — and returns when no prover is left or
// ctx is done. Cycles are at least a fraction of -period apart, so a
// 10 ms poll sees the n-th one end long before the next could start.
func retireAfter(ctx context.Context, ctl *core.FleetController, n uint64) {
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		provers := ctl.Status().Provers
		left := len(provers)
		for _, p := range provers {
			if p.Cycles >= n && ctl.Deregister(p.Name, true) == nil {
				left--
			}
		}
		if left == 0 {
			return
		}
	}
}

// filterStatus narrows a fleet snapshot to one prover's rows.
func filterStatus(st core.FleetStatus, prover string) core.FleetStatus {
	out := st
	out.Provers = nil
	for _, p := range st.Provers {
		if p.Name == prover {
			out.Provers = append(out.Provers, p)
		}
	}
	out.Ledger = nil
	for _, row := range st.Ledger {
		if row.Name == prover {
			out.Ledger = append(out.Ledger, row)
		}
	}
	return out
}

// printLedger renders the per-device totals over every epoch.
func printLedger(w io.Writer, rows []core.LedgerTotals) {
	fmt.Fprintln(w, "device ledger (all epochs):")
	for _, row := range rows {
		line := fmt.Sprintf("  %-24s audits=%d ok=%d rejected=%d timeout=%d error=%d maxRTT=%v",
			row.Name, row.Audits, row.Accepted, row.Rejected, row.Timeouts, row.Errors,
			row.MaxRTT.Round(time.Microsecond))
		if row.BatchAttested > 0 {
			line += fmt.Sprintf(" attested=%d batch/%d solo", row.BatchAttested, row.SoloAttested)
		}
		if row.LastReason != "" {
			line += " last: " + row.LastReason
		}
		fmt.Fprintln(w, line)
	}
}
