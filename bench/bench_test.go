package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

type outFile struct {
	Fingerprint fingerprint `json:"fingerprint"`
	Results     []runResult `json:"results"`
}

// quickRun drives the harness exactly as the command line does.
func quickRun(t *testing.T, args ...string) (outFile, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "out.json")
	var stdout, stderr bytes.Buffer
	if code := run(append(args, "-quick", "-out", path), &stdout, &stderr); code != 0 {
		t.Fatalf("bench %v: exit %d\n%s%s", args, code, stdout.String(), stderr.String())
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc outFile
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	return doc, stdout.String()
}

func find(t *testing.T, doc outFile, workload string, trace int) runResult {
	t.Helper()
	var found []runResult
	for _, r := range doc.Results {
		if r.Workload == workload && r.Trace == trace {
			found = append(found, r)
		}
	}
	if len(found) != 1 {
		t.Fatalf("%s trace %d: %d results, want exactly 1", workload, trace, len(found))
	}
	return found[0]
}

// TestSmoke runs every workload untraced and traced at smoke-test sizes
// and checks the output against BENCHMARK.json: every workload and
// metric once, finite, with its unit, no operation failed; the contract
// line well-formed; and the exact-count metrics equal in a second run on
// the same seed.
func TestSmoke(t *testing.T) {
	start := time.Now()
	spec, _, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	doc, stdout := quickRun(t, "-workload", "all", "-trace", "2", "-seed", "7")

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	check := func(res runResult, specs []metricSpec) {
		if !res.Correct || res.OpsFailed != 0 || res.OpsAttempted < 1 {
			t.Errorf("%s trace %d: correct=%v attempted=%d failed=%d (%s)", res.Workload, res.Trace, res.Correct, res.OpsAttempted, res.OpsFailed, res.FirstFailure)
		}
		if len(res.Metrics) != len(specs) {
			t.Errorf("%s trace %d: %d metrics, BENCHMARK.json declares %d", res.Workload, res.Trace, len(res.Metrics), len(specs))
		}
		for _, s := range specs {
			v, ok := res.Metrics[s.Name]
			switch {
			case !nameRE.MatchString(s.Name):
				t.Errorf("metric name %q is outside the allowed alphabet", s.Name)
			case !ok:
				t.Errorf("%s trace %d: metric %s missing", res.Workload, res.Trace, s.Name)
			case v.Unit != s.Unit:
				t.Errorf("%s %s: unit %q, want %q", res.Workload, s.Name, v.Unit, s.Unit)
			case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
				t.Errorf("%s %s: value %v", res.Workload, s.Name, v.Value)
			case res.Trace == 0 && v.Value <= 0:
				t.Errorf("%s %s: end-to-end value %v, want > 0", res.Workload, s.Name, v.Value)
			}
		}
	}
	for _, w := range spec.Workloads {
		if !nameRE.MatchString(w.Name) {
			t.Errorf("workload name %q is outside the allowed alphabet", w.Name)
		}
		check(find(t, doc, w.Name, 0), spec.EndToEnd)
		check(find(t, doc, w.Name, 1), spec.PerLayer)
	}
	if doc.Fingerprint.NProc < 1 || doc.Fingerprint.GoVersion == "" || doc.Fingerprint.CPUModel == "" {
		t.Errorf("fingerprint incomplete: %+v", doc.Fingerprint)
	}

	// Each run ends in one line holding exactly the contract's four keys.
	lines := 0
	for _, line := range strings.Split(stdout, "\n") {
		if !strings.HasPrefix(line, "{") {
			continue
		}
		lines++
		var obj map[string]json.RawMessage
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("contract line does not parse: %v\n%s", err, line)
		}
		for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
			if _, ok := obj[k]; !ok {
				t.Errorf("contract line lacks %q", k)
			}
		}
		if len(obj) != 4 {
			t.Errorf("contract line has %d keys, want 4", len(obj))
		}
	}
	if want := 2 * len(spec.Workloads); lines != want {
		t.Errorf("%d contract lines, want %d", lines, want)
	}

	// Metrics that are exact counts on every workload that exercises them.
	wantCounts := map[string]map[string]float64{
		"audit-loopback":   {"core.frames_per_audit": 2 * auditK, "core.pool_dials": 1, "store.preads_per_audit": 0},
		"audit-fleet-disk": {"core.frames_per_audit": 2 * auditK, "core.pool_dials": fleetProvers, "store.preads_per_audit": auditK},
	}
	for w, counts := range wantCounts {
		res := find(t, doc, w, 1)
		for name, want := range counts {
			if got := res.Metrics[name].Value; got != want {
				t.Errorf("%s %s = %v, want exactly %v", w, name, got, want)
			}
		}
	}
	// And equal across two runs on one seed.
	again, _ := quickRun(t, "-workload", "por-setup", "-trace", "1", "-seed", "7")
	const ratio = "stored_bytes_per_user_byte"
	a, b := find(t, doc, "por-setup", 1).Metrics[ratio].Value, find(t, again, "por-setup", 1).Metrics[ratio].Value
	if a != b || a <= 1 {
		t.Errorf("%s: %v then %v on the same seed, want equal and > 1", ratio, a, b)
	}
	if d := time.Since(start); d > 15*time.Second {
		t.Errorf("smoke test took %v, want < 15 s", d)
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(v, n=4),
// which the repeatability criterion is stated in.
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles(1..3) = %v %v %v, want 1 2 3", q1, q2, q3)
	}
}

// TestHistQuantile checks the log-linear histogram against exact order
// statistics: within its 1.6 % bucket width at every decade.
func TestHistQuantile(t *testing.T) {
	var h hist
	var exact []float64
	for i := 1; i <= 100000; i++ {
		d := time.Duration(i * i) // 1 ns … 10 s, denser at the low end
		h.add(d)
		exact = append(exact, float64(d))
	}
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999} {
		got, want := h.quantile(q), percentile(exact, q)
		if math.Abs(got-want)/want > 0.02 {
			t.Errorf("quantile(%v) = %.0f, exact %.0f", q, got, want)
		}
	}
}

// TestCalibrationFactors checks the reference-host arithmetic on a
// hand-built phase: readings of 1.25 and 5 M preads/s average, in time per
// pread, to 2 — 0.8 of the reference; the process was on a CPU for half
// the 1.85 s that were not stolen, so times scale by 0.5 × 0.8 + 0.5; the
// second stretch lost a quarter of itself to the hypervisor, and the third
// is too short for the steal clock to say anything about it.
func TestCalibrationFactors(t *testing.T) {
	c := &calibration{
		cpu:       925 * time.Millisecond,
		stretches: []stretch{{time.Second, 0}, {time.Second, 250 * time.Millisecond}, {100 * time.Millisecond, 50 * time.Millisecond}},
		readings:  []float64{1.25, 5},
	}
	whole, short := c.factors()
	if math.Abs(short-0.9) > 1e-12 {
		t.Errorf("short factor %v, want 0.9", short)
	}
	for i, want := range []float64{0.9, 0.675, 0.9} {
		if math.Abs(whole[i]-want) > 1e-12 {
			t.Errorf("stretch %d: whole factor %v, want %v", i, whole[i], want)
		}
	}
}

// TestSelfTime checks the span-minus-children arithmetic on a hand-built
// operation: root 100 ⊃ {a 60 ⊃ {b 25}, c 30}.
func TestSelfTime(t *testing.T) {
	r := newRecorder()
	root := r.add(spAudit, -1, 1, 0, 100)
	a := r.add(spRunAudit, root, 1, 5, 65)
	r.add(spGetSegment, a, 1, 10, 35)
	r.add(spVerifyAudit, root, 1, 70, 100)
	sum := r.summarize()
	for kind, want := range map[spanKind]time.Duration{spAudit: 10, spRunAudit: 35, spGetSegment: 25, spVerifyAudit: 30} {
		if got := sum.layers[kind].self; got != want {
			t.Errorf("%s self time %v, want %v", spanNames[kind], got, want)
		}
	}
	if got := sum.attributedPct(); got != 90 {
		t.Errorf("attributed %v %%, want 90", got)
	}
}
