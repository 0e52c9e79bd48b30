// Command geoverifierd runs the verifier device as a daemon (the
// tamper-proof, GPS-enabled box of paper Fig. 4): it accepts audit
// requests from remote TPAs (geoverify -via), runs timed challenge rounds
// against the prover, and returns signed transcripts — each TPA
// connection multiplexed, so its concurrent audits overlap, and an audit
// whose TPA has gone is cancelled. With -batchsign the transcripts are
// batch-attested instead of signed one by one; the TPA accepts either
// form. Its ECDSA public key is printed at startup for registration with
// the TPA.
//
// With -audit it instead plays the TPA side at fleet scale: the built-in
// scheduler drives continuous audits for many simulated tenants against
// one or more geoproofd provers — bounded in-flight window per prover,
// round-robin tenant fairness, per-attempt timeout and retry — and prints
// a live per-prover/per-tenant verdict ledger after every epoch.
//
// With -controller it becomes the self-driving fleet control plane: the
// core.FleetController continuously re-audits every prover on a jittered
// period, pings them between full audits, escalates a failing or slow
// prover's policy (tighter window and timeout, doubled challenge rounds),
// quarantines repeat offenders with exponential-backoff probation, and
// serves the fleet's health matrix and verdict ledger as JSON over HTTP
// (GET /status on -status-addr). The ledger stays bounded via -retain.
//
// Usage:
//
//	geoverifierd -addr :9342 -prover host:9341 [-lat -27.4698 -lon 153.0251] [-batchsign]
//	geoverifierd -audit -meta data.meta.json -provers host:9341,host2:9341 \
//	    [-tenants 8] [-epochs 3] [-k 20] [-tmax 50ms] [-window 2] \
//	    [-timeout 5s] [-retries 1] [-j 8] [-retain 8] \
//	    [-policy host2:9341=window=1,timeout=20s,retries=0]
//	geoverifierd -controller -meta data.meta.json -provers host:9341,host2:9341 \
//	    [-status-addr 127.0.0.1:9343] [-period 10s] [-period-jitter 0.2] \
//	    [-probe-period 2s] [-retain 8] [-tenants 8] [-k 20] [-tmax 50ms]
//
// -policy (repeatable) layers per-prover overrides over the fleet knobs:
// a slow WAN site can get a wider deadline and narrower window without
// loosening the LAN fleet's policy.
//
// In all three modes audit rounds reach the provers over one persistent
// multiplexed connection per prover, kept warm in a pool and shared by
// every audit in flight. Within an audit the k challenge rounds are
// serial — the next challenge leaves only after the last response
// arrived — so each round's time is the paper's per-round distance bound.
package main

import (
	"context"
	"crypto/elliptic"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
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

	"repro/internal/blockfile"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/crypt"
	"repro/internal/geo"
	"repro/internal/gps"
	"repro/internal/meta"
	"repro/internal/por"
	"repro/internal/telemetry"

	// The prover-side store families (preads, bytes, checksum failures)
	// register at package init; linking the package here keeps a fleet
	// operator's single scrape config valid against both daemons.
	_ "repro/internal/store"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "geoverifierd:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", ":9342", "listen address for TPA connections (daemon mode)")
	prover := flag.String("prover", "127.0.0.1:9341", "prover (geoproofd) address")
	lat := flag.Float64("lat", geo.Brisbane.LatDeg, "device GPS latitude")
	lon := flag.Float64("lon", geo.Brisbane.LonDeg, "device GPS longitude")

	audit := flag.Bool("audit", false, "run the multi-tenant audit scheduler instead of serving TPAs")
	controller := flag.Bool("controller", false, "run the self-driving fleet controller with an HTTP status API")
	statusAddr := flag.String("status-addr", "127.0.0.1:9343", "status API listen address (controller mode)")
	period := flag.Duration("period", 10*time.Second, "base per-prover re-audit period (controller mode)")
	periodJitter := flag.Float64("period-jitter", 0.2, "fraction of the period to jitter each cycle by, in [0,1] (controller mode)")
	probePeriod := flag.Duration("probe-period", 2*time.Second, "liveness-probe interval between full audits, 0 = off (controller mode)")
	retain := flag.Uint64("retain", 8, "epochs of per-epoch ledger detail to keep; older epochs fold into archive cells, 0 = keep all (audit/controller mode)")
	metaPath := flag.String("meta", "", "metadata sidecar from geoprep (required with -audit)")
	provers := flag.String("provers", "", "comma-separated prover addresses (default: -prover)")
	tenants := flag.Int("tenants", 8, "simulated tenants sharing the file (audit mode)")
	epochs := flag.Int("epochs", 3, "audit epochs to run, 0 = until interrupted (audit mode)")
	k := flag.Int("k", 20, "timed challenge rounds per audit (audit mode)")
	tmax := flag.Duration("tmax", 50*time.Millisecond, "per-round acceptance bound Δt_max (audit mode)")
	radius := flag.Float64("radius", 100, "SLA radius in km around the device position (audit mode)")
	window := flag.Int("window", 2, "max in-flight audits per prover (audit mode)")
	timeout := flag.Duration("timeout", 5*time.Second, "per-attempt audit deadline (audit mode)")
	retries := flag.Int("retries", 1, "retries after a transport failure or timeout (audit mode)")
	workers := flag.Int("j", 0, "concurrent audits across all provers, 0 = NumCPU (audit mode)")
	batchSign := flag.Bool("batchsign", false,
		"amortize transcript signing: Merkle-batch transcript digests and sign one root per batch "+
			"(every mode: the device's verifier attests its transcripts this way)")
	batchMax := flag.Int("batch-max", 64, "transcripts per signed batch (-batchsign)")
	batchLatency := flag.Duration("batch-latency", 2*time.Millisecond, "max wait before a partial batch is signed (-batchsign)")
	logLevel := flag.String("log-level", "info", "log verbosity: debug, info, warn, error")
	logJSON := flag.Bool("log-json", false, "emit logs as JSON instead of text")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ on the status API (controller mode)")
	traceRetain := flag.Int("trace-retain", 256, "completed audit traces retained for /debug/audits (controller mode)")
	policies := map[string]core.ProverPolicy{}
	flag.Func("policy",
		"per-prover policy override, repeatable: addr=window=N,timeout=D,retries=N,backoff=D "+
			"(timeout=0 disables the deadline, retries=0 disables retries for that prover)",
		func(v string) error {
			addr, p, err := parsePolicy(v)
			if err != nil {
				return err
			}
			policies[addr] = p
			return nil
		})
	flag.Parse()

	logger, err := telemetry.NewLogger(os.Stderr, *logLevel, *logJSON)
	if err != nil {
		return err
	}
	slog.SetDefault(logger)

	signer, err := crypt.NewSigner()
	if err != nil {
		return err
	}
	receiver := &gps.Receiver{True: geo.Position{LatDeg: *lat, LonDeg: *lon}}
	verifier, err := core.NewVerifier(signer, receiver, nil)
	if err != nil {
		return err
	}
	if *batchSign {
		batcher := crypt.NewBatchSigner(signer, crypt.BatchSignerOptions{
			MaxBatch: *batchMax, MaxLatency: *batchLatency,
		})
		defer batcher.Close()
		verifier = verifier.WithBatchSigner(batcher)
	}

	if *audit || *controller {
		targets := *provers
		if targets == "" {
			targets = *prover
		}
		o := schedOpts{
			verifier: verifier, signerPub: signer, metaPath: *metaPath,
			provers: strings.Split(targets, ","),
			tenants: *tenants, epochs: *epochs, k: *k,
			tmax: *tmax, radiusKm: *radius, lat: *lat, lon: *lon,
			window: *window, timeout: *timeout, retries: *retries, workers: *workers,
			policies: policies, retain: *retain,
			statusAddr: *statusAddr, period: *period,
			periodJitter: *periodJitter, probePeriod: *probePeriod,
			pprofOn: *pprofOn, traceRetain: *traceRetain,
		}
		if *controller {
			return runController(o)
		}
		return runScheduler(o)
	}

	pub := signer.Public()
	// The key line stays on stdout: operators pipe it into TPA
	// registration, so it is data output, not a log event.
	fmt.Printf("verifier public key (register with TPA): %s\n",
		hex.EncodeToString(elliptic.MarshalCompressed(pub.Curve, pub.X, pub.Y)))
	// The same warm pooled connection the fleet modes audit over: however
	// many audits the TPAs send, the prover is dialed once.
	pool := &core.ProverPool{}
	defer pool.Close()
	srv := &core.VerifierServer{
		Runner: &core.PooledRunner{Verifier: verifier, Addr: *prover, Pool: pool},
	}
	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	slog.Info("verifier device serving",
		"addr", lis.Addr().String(), "lat", *lat, "lon", *lon, "prover", *prover)
	return srv.Serve(lis)
}

type schedOpts struct {
	verifier  *core.Verifier
	signerPub *crypt.Signer
	metaPath  string
	provers   []string
	tenants   int
	epochs    int
	k         int
	tmax      time.Duration
	radiusKm  float64
	lat, lon  float64
	window    int
	timeout   time.Duration
	retries   int
	workers   int
	policies  map[string]core.ProverPolicy
	retain    uint64

	// Controller mode.
	statusAddr   string
	period       time.Duration
	periodJitter float64
	probePeriod  time.Duration
	pprofOn      bool
	traceRetain  int
}

// buildTPA loads the geoprep sidecar and constructs the TPA both fleet
// modes audit with, plus the validated prover address list.
func buildTPA(o schedOpts) (*core.TPA, meta.Meta, blockfile.Layout, []string, error) {
	var m meta.Meta
	var layout blockfile.Layout
	if o.metaPath == "" {
		return nil, m, layout, nil, fmt.Errorf("-meta is required (the sidecar written by geoprep)")
	}
	m, err := meta.Load(o.metaPath)
	if err != nil {
		return nil, m, layout, nil, err
	}
	layout, err = m.Layout()
	if err != nil {
		return nil, m, layout, nil, err
	}
	master, err := m.MasterKey()
	if err != nil {
		return nil, m, layout, nil, err
	}
	enc := por.NewEncoder(master).WithParams(m.Params)
	policy := core.DefaultPolicy(cloud.SLA{
		Center:   geo.Position{LatDeg: o.lat, LonDeg: o.lon},
		RadiusKm: o.radiusKm,
	})
	policy.TMax = o.tmax
	tpa, err := core.NewTPA(enc, o.signerPub.Public(), policy)
	if err != nil {
		return nil, m, layout, nil, err
	}
	var addrs []string
	for _, p := range o.provers {
		if a := strings.TrimSpace(p); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		return nil, m, layout, nil, fmt.Errorf("no prover addresses given")
	}
	// A policy that matches no prover is an operator typo; silently
	// running without the override would be worse than refusing.
	known := make(map[string]bool, len(addrs))
	for _, a := range addrs {
		known[a] = true
	}
	for a := range o.policies {
		if !known[a] {
			return nil, m, layout, nil, fmt.Errorf("-policy for %q matches no -provers address (have %s)", a, strings.Join(addrs, ", "))
		}
	}
	return tpa, m, layout, addrs, nil
}

// parsePolicy parses one -policy value: "addr=knob=value,knob=value,...".
// A knob explicitly set to zero means "off" for that prover (mapped to
// the ProverPolicy negative sentinel); an omitted knob inherits the
// fleet default.
func parsePolicy(v string) (string, core.ProverPolicy, error) {
	addr, spec, ok := strings.Cut(v, "=")
	if !ok || addr == "" {
		return "", core.ProverPolicy{}, fmt.Errorf("policy %q: want addr=knob=value,...", v)
	}
	var p core.ProverPolicy
	for _, kv := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return "", core.ProverPolicy{}, fmt.Errorf("policy %q: bad knob %q", v, kv)
		}
		switch key {
		case "window":
			n, err := strconv.Atoi(val)
			if err != nil || n <= 0 {
				return "", core.ProverPolicy{}, fmt.Errorf("policy %q: window %q must be a positive integer", v, val)
			}
			p.Window = n
		case "timeout":
			d, err := time.ParseDuration(val)
			if err != nil || d < 0 {
				return "", core.ProverPolicy{}, fmt.Errorf("policy %q: bad timeout %q", v, val)
			}
			if d == 0 {
				p.Timeout = -1
			} else {
				p.Timeout = d
			}
		case "retries":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return "", core.ProverPolicy{}, fmt.Errorf("policy %q: bad retries %q", v, val)
			}
			if n == 0 {
				p.Retries = -1
			} else {
				p.Retries = n
			}
		case "backoff":
			d, err := time.ParseDuration(val)
			if err != nil || d < 0 {
				return "", core.ProverPolicy{}, fmt.Errorf("policy %q: bad backoff %q", v, val)
			}
			if d == 0 {
				p.RetryBackoff = -1
			} else {
				p.RetryBackoff = d
			}
		default:
			return "", core.ProverPolicy{}, fmt.Errorf("policy %q: unknown knob %q (window, timeout, retries, backoff)", v, key)
		}
	}
	return addr, p, nil
}

// runScheduler is audit mode: this process is both the verifier device and
// the multi-tenant TPA, continuously auditing every listed prover.
func runScheduler(o schedOpts) error {
	tpa, m, layout, addrs, err := buildTPA(o)
	if err != nil {
		return err
	}

	sched := core.NewScheduler(core.SchedulerConfig{
		Workers:      o.workers,
		ProverWindow: o.window,
		Timeout:      o.timeout,
		Retries:      o.retries,
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
				"tenant", v.Task.Tenant, "prover", v.Task.Prover,
				"outcome", v.Outcome.String(), "detail", detail,
				"attempts", v.Attempts)
		},
	})

	var tasks []core.AuditTask
	for t := 0; t < o.tenants; t++ {
		name := fmt.Sprintf("tenant-%03d", t)
		sched.RegisterTenant(name, tpa)
		for _, addr := range addrs {
			tasks = append(tasks, core.AuditTask{
				Tenant: name, Prover: addr,
				FileID: m.FileID, Layout: layout, K: o.k,
			})
		}
	}
	// One shared pool of persistent multiplexed connections across every
	// prover; each audit borrows the warm conn and runs its k serial
	// rounds on it. The scheduler's attempt context cancels only the
	// borrowed round's stream, so an abandoned audit never kills a
	// sibling's in-flight rounds.
	pool := &core.ProverPool{DialTimeout: o.timeout}
	defer pool.Close()
	for _, addr := range addrs {
		policy := o.policies[addr]
		sched.RegisterProverPolicy(addr, &core.PooledRunner{Verifier: o.verifier, Addr: addr, Pool: pool}, policy)
		if policy != (core.ProverPolicy{}) {
			slog.Info("policy override", "prover", addr, "policy", fmt.Sprintf("%+v", policy))
		}
	}

	slog.Info("audit scheduler starting",
		"tenants", o.tenants, "provers", len(addrs), "rounds", o.k,
		"window", o.window, "tmax", o.tmax)
	for epoch := 1; o.epochs == 0 || epoch <= o.epochs; epoch++ {
		// Continuous runs stay bounded: fold epochs older than the
		// retention window into the per-(tenant, prover) archive cells.
		if o.retain > 0 && uint64(epoch) > o.retain {
			sched.Ledger().CompactBefore(uint64(epoch) - o.retain)
		}
		start := time.Now()
		verdicts := sched.RunEpoch(context.Background(), tasks)
		elapsed := time.Since(start)
		var accepted int
		for _, v := range verdicts {
			if v.Outcome == core.OutcomeAccepted {
				accepted++
			}
		}
		fmt.Printf("epoch %d: %d/%d accepted in %v (%.1f audits/s)\n",
			epoch, accepted, len(verdicts), elapsed.Round(time.Millisecond),
			float64(len(verdicts))/elapsed.Seconds())
		printLedger(sched.Ledger())
	}
	return nil
}

// runController is controller mode: the process becomes the fleet's
// self-driving control plane. Every prover is continuously re-audited on
// a jittered period and pinged between audits; failing provers are
// escalated, quarantined and rehabilitated by the core.FleetController
// state machine; and the whole health matrix is served as JSON over HTTP
// for operators and the CI smoke test.
func runController(o schedOpts) error {
	tpa, m, layout, addrs, err := buildTPA(o)
	if err != nil {
		return err
	}
	if o.periodJitter < 0 || o.periodJitter > 1 {
		return fmt.Errorf("-period-jitter %v: want a fraction in [0,1]", o.periodJitter)
	}

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
		},
		AuditPeriod:  o.period,
		AuditJitter:  o.periodJitter,
		ProbePeriod:  o.probePeriod,
		ProbeTimeout: o.timeout,
		RetainEpochs: o.retain,
		Pool:         pool,
		OnTransition: func(prover string, from, to core.Health, reason string) {
			slog.Info("prover health transition",
				"prover", prover, "from", from.String(), "to", to.String(), "reason", reason)
		},
	})
	defer ctl.Close()

	for t := 0; t < o.tenants; t++ {
		ctl.RegisterTenant(fmt.Sprintf("tenant-%03d", t), tpa)
	}
	for _, addr := range addrs {
		var tasks []core.AuditTask
		for t := 0; t < o.tenants; t++ {
			tasks = append(tasks, core.AuditTask{
				Tenant: fmt.Sprintf("tenant-%03d", t),
				FileID: m.FileID, Layout: layout, K: o.k,
			})
		}
		err := ctl.Register(addr, core.ProverSpec{
			Runner: &core.PooledRunner{Verifier: o.verifier, Addr: addr, Pool: pool},
			Probe:  core.PoolProbe(pool, addr),
			Policy: o.policies[addr],
			Addr:   addr,
			Tasks:  tasks,
		})
		if err != nil {
			return err
		}
	}

	mux := http.NewServeMux()
	// ?prover=addr narrows the health matrix and ledger to one prover —
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
		"provers", len(addrs), "tenants", o.tenants,
		"period", o.period, "jitter", o.periodJitter,
		"probePeriod", o.probePeriod,
		"statusAPI", "http://"+lis.Addr().String()+"/status",
		"pprof", o.pprofOn)
	if err := ctl.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
		return err
	}
	slog.Info("fleet controller shut down")
	return nil
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

// printLedger renders the running per-prover totals.
func printLedger(l *core.AuditLedger) {
	fmt.Println("  prover ledger (all epochs):")
	for _, row := range l.TotalsByProver() {
		line := fmt.Sprintf("    %-24s audits=%d ok=%d rejected=%d timeout=%d error=%d maxRTT=%v",
			row.Name, row.Audits, row.Accepted, row.Rejected, row.Timeouts, row.Errors,
			row.MaxRTT.Round(time.Microsecond))
		if row.BatchAttested > 0 {
			line += fmt.Sprintf(" attested=%d batch/%d solo", row.BatchAttested, row.SoloAttested)
		}
		if row.LastReason != "" {
			line += " last: " + row.LastReason
		}
		fmt.Println(line)
	}
}
