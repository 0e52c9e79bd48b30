package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// runConfig is one run's parameters. The sizes are fixed by the
// benchmark; -quick shrinks them for the smoke test.
type runConfig struct {
	seed      int64
	window    time.Duration // measured window
	warmup    time.Duration
	slice     time.Duration // audit workloads: one stretch of the window's calibration
	setupMin  int           // fixture builds, at least; setup_s is their median
	kernelMin time.Duration // time given to each isolated kernel

	loopbackBytes int64 // audit-loopback file
	fleetBytes    int64 // audit-fleet-disk store, per prover
	epochTasks    int   // audit-fleet-disk audits per scheduler epoch
	setupBytes    int64 // por-setup file
	retrieveBytes int64 // por-retrieve file
	kernelBytes   int   // MemTarget kernels' file

	workDir string     // scratch, inside the checkout
	host    *hostProbe // reads the host's speed between timed stretches
	outDir  string     // trace files
	log     io.Writer  // human-readable progress and tables
}

func defaultConfig(seed int64, seconds float64, quick bool) runConfig {
	c := runConfig{
		seed:      seed,
		window:    time.Duration(seconds * float64(time.Second)),
		warmup:    2 * time.Second,
		slice:     500 * time.Millisecond,
		setupMin:  5,
		kernelMin: 100 * time.Millisecond,

		loopbackBytes: 256 << 10,
		fleetBytes:    8 << 20,
		epochTasks:    128,
		setupBytes:    32 << 20,
		retrieveBytes: 8 << 20,
		kernelBytes:   4 << 20,
	}
	if quick {
		c.warmup = 100 * time.Millisecond
		c.slice = 100 * time.Millisecond
		c.setupMin = 1
		c.kernelMin = 5 * time.Millisecond
		c.fleetBytes = 1 << 20
		c.epochTasks = 16
		c.setupBytes = 2 << 20
		c.retrieveBytes = 1 << 20
		c.kernelBytes = 256 << 10
	}
	return c
}

// outcome is what one run of one workload measured.
type outcome struct {
	attempted, failed int64
	firstFailure      string
	metrics           map[string]float64
	host              hostStats
	rawGoodput        float64 // good operations per second of wall time inside the untraced window's stretches
}

// setupMedian builds the fixture at least min times — and, when a build
// takes milliseconds, up to 15 times within a second, so that the median
// of a 10 ms set-up is not one host stall wide — keeps the last and
// returns the median calibrated build time in seconds.
func setupMedian[T any](host *hostProbe, min int, build func() (T, error), discard func(T)) (T, float64, error) {
	var fx T
	var times []float64
	var total float64
	cal := host.calibration()
	for len(times) < min || (min > 1 && len(times) < 15 && total < 1) {
		if len(times) > 0 {
			discard(fx)
		}
		var err error
		var took time.Duration
		cal.run(func() {
			start := time.Now()
			fx, err = build()
			took = time.Since(start)
		})
		if err != nil {
			return fx, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, took.Seconds())
		total += took.Seconds()
	}
	whole, _ := cal.factors()
	for i, f := range whole {
		times[i] *= f
	}
	return fx, median(times), nil
}

// windows runs the measured phases of a run: one untraced window, or —
// for the traced run — an untraced and a traced half, whose difference is
// the tracing overhead. It returns the traced half's recorder.
func windows(cfg runConfig, traced bool, run func(rec *recorder, d time.Duration)) *recorder {
	if !traced {
		run(nil, cfg.window)
		return nil
	}
	run(nil, cfg.window/2)
	rec := newRecorder()
	run(rec, cfg.window/2)
	return rec
}

// finishTrace prints the traced half's self-time table, writes its trace
// file and fills in the metrics every traced run reports the same way.
func finishTrace(cfg runConfig, name string, rec *recorder, m map[string]float64, plainRate, tracedRate float64) (traceSummary, error) {
	sum := rec.summarize()
	sum.printSelfTimes(cfg.log, name)
	m["trace.overhead_pct"] = 100 * div(plainRate-tracedRate, plainRate)
	m["trace.attributed_pct"] = sum.attributedPct()
	return sum, rec.writeFile(filepath.Join(cfg.outDir, "trace-"+name+".json"), name, cfg.seed)
}

func runWorkload(name string, cfg runConfig, traced bool) (outcome, error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return outcome{}, err
	}
	defer os.RemoveAll(cfg.workDir)
	var (
		out outcome
		err error
	)
	if cfg.host, err = newHostProbe(cfg.workDir); err != nil {
		return outcome{}, err
	}
	defer cfg.host.close()
	switch name {
	case "audit-loopback", "audit-fleet-disk":
		out, err = runAudits(name, cfg, traced)
	case "por-setup":
		out, err = runPorSetup(cfg, traced)
	case "por-retrieve":
		out, err = runPorRetrieve(cfg, traced)
	default:
		return outcome{}, fmt.Errorf("unknown workload %q", name)
	}
	if err != nil {
		return out, fmt.Errorf("%s: %w", name, err)
	}
	if traced {
		k, err := kernels(cfg.seed, cfg.workDir, cfg.kernelMin, cfg.kernelBytes)
		if err != nil {
			return out, fmt.Errorf("%s: kernels: %w", name, err)
		}
		for name, v := range k {
			out.metrics[name] = v
		}
		out.metrics["host.pread_Mps"] = out.host.PreadMps
		out.metrics["host.sleep_overshoot_p50_us"] = out.host.SleepOvershootP50Us
		out.metrics["host.sleep_overshoot_p99_us"] = out.host.SleepOvershootP99Us
		out.metrics["host.stall_events"] = float64(out.host.StallEvents)
		out.metrics["host.steal_pct"] = out.host.StealPct
	}
	return out, nil
}

// div is a/b, or 0 when nothing was counted.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func perOp(total float64, ops int64) float64 { return div(total, float64(ops)) }

const mib = 1 << 20

func runAudits(name string, cfg runConfig, traced bool) (outcome, error) {
	fleet := name == "audit-fleet-disk"
	drive, tpas, storeBytes := loopbackClients, 2, int64(0)
	if fleet {
		drive, tpas, storeBytes = fleetEpochs, fleetTenants, cfg.fleetBytes
	}
	fx, setupS, err := setupMedian(cfg.host, cfg.setupMin, func() (*auditFixture, error) {
		return newAuditFixture(cfg.seed, cfg.workDir, cfg.loopbackBytes, storeBytes, tpas)
	}, (*auditFixture).close)
	if err != nil {
		return outcome{}, err
	}
	defer fx.close()
	fx.epochTasks = cfg.epochTasks
	if err := runCanaries(fx, cfg.seed); err != nil {
		return outcome{}, err
	}
	fmt.Fprintf(cfg.log, "# %s: canaries rejected (flipped byte on MACs, +20 ms on timing, replay on nonce)\n", name)
	drive(fx, &tally{}, nil, time.Now().Add(cfg.warmup))

	// A window is a run of slices, each driven to its own deadline, so
	// that no audit is in flight while the host's speed is read between
	// two of them.
	type window struct {
		t               *tally
		ph              phase
		cal             *calibration
		goodput, p50ms  float64 // in reference time
		raw             float64 // accepted audits per second of the slices' wall time
		signed, batches int64   // BatchSigner counters over the window
	}
	var wins []window
	rec := windows(cfg, traced, func(rec *recorder, d time.Duration) {
		w := window{t: &tally{}, cal: cfg.host.calibration()}
		if fx.batch != nil {
			w.signed, w.batches = -fx.batch.Signed(), -fx.batch.Batches()
		}
		w.ph = measure(func() {
			for deadline := time.Now().Add(d); time.Now().Before(deadline); {
				w.cal.run(func() {
					start := time.Now()
					drive(fx, w.t, rec, start.Add(cfg.slice))
					w.t.endSlice(time.Since(start))
				})
			}
		})
		if fx.batch != nil {
			w.signed, w.batches = w.signed+fx.batch.Signed(), w.batches+fx.batch.Batches()
		}
		w.goodput, w.p50ms = w.t.calibrated(w.cal.factors())
		w.raw = div(float64(w.t.good), w.cal.wall().Seconds())
		wins = append(wins, w)
	})

	out := outcome{metrics: make(map[string]float64)}
	for _, w := range wins {
		out.attempted += w.t.attempted
		out.failed += w.t.failed
		if out.firstFailure == "" {
			out.firstFailure = w.t.firstFailure
		}
	}
	plain := wins[0]
	out.host = hostFrom(plain.ph, plain.cal)
	out.rawGoodput = plain.raw
	if !traced {
		out.metrics["goodput"] = plain.goodput
		out.metrics["latency_p50_ms"] = plain.p50ms
		out.metrics["peak_heap_mib"] = float64(plain.ph.peakHeap) / mib
		out.metrics["setup_s"] = setupS
		return out, nil
	}

	w, m := wins[1], out.metrics
	tt, ph := w.t, w.ph
	sum, err := finishTrace(cfg, name, rec, m, plain.raw, w.raw)
	if err != nil {
		return out, err
	}
	audits := tt.attempted
	m["audit_p99_ms"] = tt.lat.quantile(0.99) / 1e6
	m["round_rtt_p50_us"] = tt.rtt.quantile(0.5) / 1e3
	m["round_rtt_p99_us"] = tt.rtt.quantile(0.99) / 1e3
	m["core.new_request_us"] = sum.layers[spNewRequest].meanUs()
	m["core.pool_get_us"] = sum.layers[spPoolGet].meanUs()
	m["core.run_audit_us"] = sum.layers[spRunAudit].meanUs()
	m["core.rounds_us"] = perOp(float64(sum.layers[spGetSegment].total)/1e3, sum.layers[spRunAudit].count)
	m["core.attest_us"] = m["core.run_audit_us"] - m["core.rounds_us"]
	m["core.verify_audit_us"] = sum.layers[spVerifyAudit].meanUs()
	if fleet {
		m["core.sched_overhead_us"] = sum.layers[spSchedAudit].meanUs() - sum.layers[spRunner].meanUs()
		m["core.sched_window_wait_us"] = sum.layers[spSchedWindowWait].meanUs()
		m["crypt.batch_mean_size"] = perOp(float64(w.signed), w.batches)
	}
	m["core.frames_per_audit"] = perOp(ph.counters[seriesFramesWritten]+ph.counters[seriesFramesRead], audits)
	m["core.pool_dials"] = float64(fx.pool.Dials())
	m["core.timing_reject_share"] = perOp(float64(tt.timingRejects), audits)
	m["core.allocs_per_audit"] = perOp(float64(ph.mallocs), audits)
	m["core.alloc_kib_per_audit"] = perOp(float64(ph.allocBytes)/1024, audits)
	m["core.gc_pause_ms_per_s"] = float64(ph.gcPause) / 1e6 / ph.elapsed.Seconds()
	m["store.preads_per_audit"] = perOp(ph.counters[seriesStorePreads], audits)
	m["cpu_ms_per_op"] = perOp(float64(plain.cal.cpu)/1e6, plain.t.good)
	out.host = hostFrom(ph, w.cal)
	return out, nil
}

// porRun is one measured phase of a POR workload: each iteration's wall
// time as measured and in reference time, and its CPU time.
type porRun struct {
	ph                phase
	cal               *calibration
	wall, durs, cpuMs []float64
	failed            int64
	failure           string
}

// porLoop runs iterate back to back for d inside measure, each iteration
// a stretch of the phase's calibration.
func porLoop(host *hostProbe, d time.Duration, iterate func(op int32) (time.Duration, error)) porRun {
	r := porRun{cal: host.calibration()}
	r.ph = measure(func() {
		deadline := time.Now().Add(d)
		for op := int32(1); op == 1 || time.Now().Before(deadline); op++ {
			r.cal.run(func() {
				cpu0 := processCPU()
				dur, err := iterate(op)
				if err != nil {
					r.failed++
					if r.failure == "" {
						r.failure = err.Error()
					}
				}
				r.wall = append(r.wall, dur.Seconds())
				r.cpuMs = append(r.cpuMs, float64(processCPU()-cpu0)/1e6)
			})
		}
	})
	whole, _ := r.cal.factors()
	for i, f := range whole {
		r.durs = append(r.durs, r.wall[i]*f)
	}
	return r
}

// rate is operations per second of the time spent inside them.
func rate(durs []float64) float64 {
	var sum float64
	for _, d := range durs {
		sum += d
	}
	return div(float64(len(durs)), sum)
}

func (r porRun) e2e(setupS float64) map[string]float64 {
	return map[string]float64{
		"goodput":        rate(r.durs),
		"latency_p50_ms": median(r.durs) * 1e3,
		"peak_heap_mib":  float64(r.ph.peakHeap) / mib,
		"setup_s":        setupS,
	}
}

func porOutcome(runs []porRun) outcome {
	out := outcome{metrics: make(map[string]float64)}
	for _, r := range runs {
		out.attempted += int64(len(r.durs))
		out.failed += r.failed
		if out.firstFailure == "" {
			out.firstFailure = r.failure
		}
	}
	last := runs[len(runs)-1]
	out.host = hostFrom(last.ph, last.cal)
	out.rawGoodput = rate(runs[0].wall)
	return out
}

func runPorSetup(cfg runConfig, traced bool) (outcome, error) {
	fx, setupS, err := setupMedian(cfg.host, cfg.setupMin, func() (*porFixture, error) {
		return newPorFixture(cfg.seed, cfg.workDir, cfg.setupBytes, false)
	}, (*porFixture).close)
	if err != nil {
		return outcome{}, err
	}
	defer fx.close()
	// The warm-up iteration's store is extracted and compared with the
	// input; every later commit must carry the same shard checksums.
	ref, err := fx.encodeOnce(nil, 0)
	if err != nil {
		return outcome{}, err
	}
	if _, err := fx.extractOnce(fx.storeDir, false, nil, 0); err != nil {
		return outcome{}, fmt.Errorf("round trip of the encoded store: %w", err)
	}

	var runs []porRun
	rec := windows(cfg, traced, func(rec *recorder, d time.Duration) {
		r := porLoop(cfg.host, d, func(op int32) (time.Duration, error) {
			if err := removeAll(fx.storeDir); err != nil { // untimed: see removeAll
				return 0, err
			}
			start := time.Now()
			man, err := fx.encodeOnce(rec, op)
			if err == nil && !sameShards(man, ref) {
				err = fmt.Errorf("iteration %d committed different bytes than the verified reference", op)
			}
			return time.Since(start), err
		})
		runs = append(runs, r)
	})
	out := porOutcome(runs)
	if !traced {
		out.metrics = runs[0].e2e(setupS)
		return out, nil
	}
	m := out.metrics
	sum, err := finishTrace(cfg, "por-setup", rec, m, rate(runs[0].wall), rate(runs[1].wall))
	if err != nil {
		return out, err
	}
	stored, err := dirBytes(fx.storeDir)
	if err != nil {
		return out, err
	}
	m["encode_MBps"] = rate(runs[1].wall) * float64(fx.size) / 1e6
	m["stored_bytes_per_user_byte"] = float64(stored) / float64(fx.size)
	m["store.commit_ms"] = sum.layers[spStoreCommit].meanUs() / 1e3
	m["cpu_ms_per_op"] = median(runs[0].cpuMs)
	return out, nil
}

func runPorRetrieve(cfg runConfig, traced bool) (outcome, error) {
	fx, setupS, err := setupMedian(cfg.host, cfg.setupMin, func() (*porFixture, error) {
		return newPorFixture(cfg.seed, cfg.workDir, cfg.retrieveBytes, true)
	}, (*porFixture).close)
	if err != nil {
		return outcome{}, err
	}
	defer fx.close()

	// One operation is a pair — the clean store, then the damaged one —
	// so its latency has one mode, not two.
	pair := func(rec *recorder, op int32) (time.Duration, error) {
		clean, err := fx.extractOnce(fx.storeDir, false, rec, 2*op)
		if err != nil {
			return 0, fmt.Errorf("clean pass: %w", err)
		}
		damaged, err := fx.extractOnce(fx.damaged, true, rec, 2*op+1)
		if err != nil {
			return 0, fmt.Errorf("damaged pass: %w", err)
		}
		return clean + damaged, nil
	}
	if _, err := pair(nil, 0); err != nil { // warm-up
		return outcome{}, err
	}

	var runs []porRun
	rec := windows(cfg, traced, func(rec *recorder, d time.Duration) {
		runs = append(runs, porLoop(cfg.host, d, func(op int32) (time.Duration, error) { return pair(rec, op) }))
	})
	out := porOutcome(runs)
	if !traced {
		out.metrics = runs[0].e2e(setupS)
		return out, nil
	}
	m, ph := out.metrics, runs[1].ph
	sum, err := finishTrace(cfg, "por-retrieve", rec, m, rate(runs[0].wall), rate(runs[1].wall))
	if err != nil {
		return out, err
	}
	passMBps := func(pass spanKind) float64 { return div(float64(fx.size)/1e6, sum.layers[pass].meanUs()/1e6) }
	userBytes := float64(fx.size) * float64(sum.ops)
	m["extract_clean_MBps"] = passMBps(spRetrieveClean)
	m["extract_damaged_MBps"] = passMBps(spRetrieveDamaged)
	m["store.open_verify_ms"] = (sum.layers[spStoreOpen].meanUs() + sum.layers[spStoreVerify].meanUs()) / 1e3
	m["store.preads_per_mib"] = div(ph.counters[seriesStorePreads], userBytes/mib)
	m["store.pread_bytes_per_user_byte"] = div(ph.counters[seriesStorePreadB], userBytes)
	m["cpu_ms_per_op"] = median(runs[0].cpuMs)
	return out, nil
}
