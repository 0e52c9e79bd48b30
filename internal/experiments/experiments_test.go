package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/geo"
	"repro/internal/por"
)

func TestTableIValuesMatchPaper(t *testing.T) {
	tab := TableI()
	if len(tab.Rows) != 5 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	// WD2500JD computed Δt_L must render as 13.105/13.106 ms.
	var wd string
	for _, r := range tab.Rows {
		if r[0] == "WD 2500JD" {
			wd = r[5]
		}
	}
	if !strings.HasPrefix(wd, "13.10") {
		t.Fatalf("WD2500JD Δt_L cell %q", wd)
	}
	if out := tab.String(); !strings.Contains(out, "IBM 36Z15") {
		t.Fatal("render missing drive name")
	}
}

func TestTableIIAllUnderOneMs(t *testing.T) {
	tab := TableII(1)
	if len(tab.Rows) != 10 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		if r[5] != "true" {
			t.Fatalf("machine %s RTT %s not under 1 ms", r[0], r[4])
		}
	}
}

func TestTableIIIShapeMatchesPaper(t *testing.T) {
	tab := TableIII(2)
	if len(tab.Rows) != 9 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	// Simulated RTTs must be monotone-ish with distance: last row
	// (Perth) strictly above first row (Brisbane).
	parse := func(cell string) float64 {
		f, err := strconv.ParseFloat(strings.TrimSuffix(cell, " ms"), 64)
		if err != nil {
			t.Fatalf("parse %q: %v", cell, err)
		}
		return f
	}
	first := parse(tab.Rows[0][4])
	last := parse(tab.Rows[8][4])
	if last <= first {
		t.Fatalf("Perth RTT %.1f not above Brisbane %.1f", last, first)
	}
	// Every simulated row within 25 ms of the paper's measurement.
	for _, r := range tab.Rows {
		if e := parse(r[5]); e > 25 {
			t.Fatalf("row %s absolute error %.1f ms too large", r[0], e)
		}
	}
	// Notes must contain a positive correlation.
	found := false
	for _, n := range tab.Notes {
		if strings.Contains(n, "correlation r=0.9") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no strong positive correlation note: %v", tab.Notes)
	}
}

func TestE4SetupNumbers(t *testing.T) {
	tab, err := E4Setup()
	if err != nil {
		t.Fatal(err)
	}
	joined := tab.String()
	for _, want := range []string{"134217728", "14.35%", "3.12%", "2^27"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("table missing %q:\n%s", want, joined)
		}
	}
}

func TestE5DetectionMonteCarloMatchesAnalytic(t *testing.T) {
	tab, err := E5Detection(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range tab.Rows {
		analytic, err1 := strconv.ParseFloat(r[2], 64)
		mc, err2 := strconv.ParseFloat(r[3], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("unparseable row %v", r)
		}
		if math.Abs(analytic-mc) > 0.08 {
			t.Fatalf("Monte-Carlo %v deviates from analytic %v", mc, analytic)
		}
	}
}

// TestE5CheckAgreesWithTPA: E5's per-trial check and the shipped TPA
// reach the same MAC verdict on one damaged copy for the same nonce — the
// TPA through full audits over the simulated network, E5 by slicing the
// copy itself.
func TestE5CheckAgreesWithTPA(t *testing.T) {
	dep, err := newDeployment(5)
	if err != nil {
		t.Fatal(err)
	}
	defer dep.close()
	ef := dep.ef
	damaged := append([]byte(nil), ef.Data...)
	rng := rand.New(rand.NewSource(5))
	nSeg := int(ef.Layout.Segments)
	for _, s := range rng.Perm(nSeg)[:nSeg/30] {
		off, err := ef.Layout.SegmentOffset(int64(s))
		if err != nil {
			t.Fatal(err)
		}
		damaged[off] ^= 0xFF
	}
	copyEF := &por.EncodedFile{FileID: ef.FileID, Layout: ef.Layout, Data: damaged}
	dep.srv.Provider = &cloud.HonestProvider{Site: storeAt(copyEF, "bne-dc", geo.Brisbane, disk.WD2500JD, 6)}
	tpa := dep.tpa.WithNonceReader(rand.New(rand.NewSource(7)))
	runner := core.PooledRunner{Verifier: dep.verifier, Addr: "prover", Pool: dep.pool}

	const k, nonces = 20, 60
	caught := 0
	for n := 0; n < nonces; n++ {
		req, err := tpa.NewRequest(ef.FileID, ef.Layout, k)
		if err != nil {
			t.Fatal(err)
		}
		st, err := runner.RunAudit(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		rep := tpa.VerifyAudit(req, ef.Layout, st)
		if rep.FailedRounds != 0 {
			t.Fatalf("nonce %d: %d rounds failed", n, rep.FailedRounds)
		}
		hit, err := auditDetects(dep.enc, ef.FileID, ef.Layout, damaged, req.Nonce, k)
		if err != nil {
			t.Fatal(err)
		}
		if hit != !rep.MACsOK {
			t.Fatalf("nonce %x: E5 detects %v, TPA MACsOK %v (%s)", req.Nonce, hit, rep.MACsOK, rep.Reason())
		}
		if hit {
			caught++
		}
	}
	if caught == 0 || caught == nonces {
		t.Fatalf("%d of %d audits caught the damage: the damage level tests only one outcome", caught, nonces)
	}
}

func TestE6RelayCrossover(t *testing.T) {
	tab, err := E6Relay(4)
	if err != nil {
		t.Fatal(err)
	}
	// Honest row accepted; the 1000 km relay rejected.
	if tab.Rows[0][4] != "true" {
		t.Fatalf("honest configuration rejected: %v", tab.Rows[0])
	}
	lastRelay := tab.Rows[len(tab.Rows)-1]
	if lastRelay[4] != "false" {
		t.Fatalf("1000 km relay accepted: %v", lastRelay)
	}
	// Acceptance must be monotone: once rejected, farther stays rejected.
	rejected := false
	for _, r := range tab.Rows[1:] {
		acc := r[4] == "true"
		if rejected && acc {
			t.Fatalf("non-monotone accept/reject: %v", tab.Rows)
		}
		if !acc {
			rejected = true
		}
	}
	// Paper bound note present.
	found := false
	for _, n := range tab.Notes {
		if strings.Contains(n, "360") {
			found = true
		}
	}
	if !found {
		t.Fatalf("paper 360 km note missing: %v", tab.Notes)
	}
}

func TestE7BudgetTable(t *testing.T) {
	tab := E7TimingBudget()
	out := tab.String()
	for _, want := range []string{"13.105", "5.406", "150 km", "200 km"} {
		if !strings.Contains(out, want) {
			t.Fatalf("budget table missing %q:\n%s", want, out)
		}
	}
}

func TestE8EmpiricalWithinTolerance(t *testing.T) {
	tab, err := E8DistanceBounding(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 12 { // 3 protocols x 4 attacks
		t.Fatalf("%d rows", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		analytic, _ := strconv.ParseFloat(r[2], 64)
		empirical, _ := strconv.ParseFloat(r[3], 64)
		if math.Abs(analytic-empirical) > 0.06 {
			t.Fatalf("%s/%s: empirical %.4f vs analytic %.4f", r[0], r[1], empirical, analytic)
		}
	}
}

func TestE9GeolocationAdversaryDegradation(t *testing.T) {
	tab, err := E9Geolocation(6)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	parseKm := func(cell string) float64 {
		f, err := strconv.ParseFloat(strings.TrimSuffix(cell, " km"), 64)
		if err != nil {
			return -1
		}
		return f
	}
	// TBG row: adversarial error must exceed honest error.
	for _, r := range tab.Rows {
		if r[0] == "TBG" {
			if parseKm(r[2]) <= parseKm(r[1]) {
				t.Fatalf("TBG adversary did not degrade estimate: %v", r)
			}
		}
		if r[0] == "IP-mapping" {
			if parseKm(r[1]) < 500 {
				t.Fatalf("IP-mapping row should show the registry lie: %v", r)
			}
		}
	}
}

func TestE10AblationsRows(t *testing.T) {
	tab, err := E10Ablations(7)
	if err != nil {
		t.Fatal(err)
	}
	out := tab.String()
	// Erasure hints must rescue the 24- and 32-block cases that blind
	// decoding loses.
	if !strings.Contains(out, "blind decode 0/30, hinted 30/30") {
		t.Fatalf("erasure ablation missing expected contrast:\n%s", out)
	}
	// The max policy must dominate the mean policy.
	if !strings.Contains(out, "max detects 100.0%, mean detects 0.0%") {
		t.Fatalf("timing-policy ablation unexpected:\n%s", out)
	}
	// Load headroom: +0 ms accepted, +5 ms rejected.
	if !strings.Contains(out, "+0s service delay") {
		t.Fatalf("load ablation rows missing:\n%s", out)
	}
	var sawAccept, sawReject bool
	for _, r := range tab.Rows {
		if r[0] != "Δt_max headroom under load" {
			continue
		}
		if strings.Contains(r[2], "accepted=true") {
			sawAccept = true
		}
		if strings.Contains(r[2], "accepted=false") {
			sawReject = true
		}
	}
	if !sawAccept || !sawReject {
		t.Fatal("load sweep should cross the acceptance boundary")
	}
}

func TestTableRender(t *testing.T) {
	tab := Table{
		ID: "X", Title: "demo",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "2"}, {"longer", "x"}},
		Notes:  []string{"note"},
	}
	out := tab.String()
	if !strings.Contains(out, "X — demo") || !strings.Contains(out, "note: note") {
		t.Fatalf("render:\n%s", out)
	}
}

// renderAll renders E1-E10 at one seed, in geobench's order, one string
// per table.
func renderAll(t *testing.T, seed int64) []string {
	t.Helper()
	var out []string
	for _, gen := range []func() (Table, error){
		func() (Table, error) { return TableI(), nil },
		func() (Table, error) { return TableII(seed), nil },
		func() (Table, error) { return TableIII(seed), nil },
		E4Setup,
		func() (Table, error) { return E5Detection(seed) },
		func() (Table, error) { return E6Relay(seed) },
		func() (Table, error) { return E7TimingBudget(), nil },
		func() (Table, error) { return E8DistanceBounding(seed) },
		func() (Table, error) { return E9Geolocation(seed) },
		func() (Table, error) { return E10Ablations(seed) },
	} {
		tab, err := gen()
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		tab.Render(&sb)
		out = append(out, sb.String())
	}
	return out
}

// TestTablesDeterministic: the tables are a pure function of the seed —
// no wall-clock timing, heap sampling or scheduling order reaches a byte
// of geobench's output.
func TestTablesDeterministic(t *testing.T) {
	for _, seed := range []int64{1, 3} {
		a, b := renderAll(t, seed), renderAll(t, seed)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: two renders differ:\n%s\n---\n%s", seed, a[i], b[i])
			}
		}
	}
}

// tablePins holds the first 16 hex digits of the SHA-256 of each
// rendered table, E1-E10 in geobench's order, per seed. A change that
// moves a table's bytes must say which pin it moved and why.
var tablePins = map[int64][]string{
	1: {
		"338a3f0d63ccb624", "3cd768bb50ea51e9", "62c2b39b776c87c5", "22cad70a92123716", "06ac52f7dde6e8e1",
		"5ab53dba26c51100", "2d0895a350abd74f", "a200059e10447049", "95782c65618bce9f", "8eb95d3390962aa9",
	},
	3: {
		"338a3f0d63ccb624", "706853a69269e7da", "62c2b39b776c87c5", "22cad70a92123716", "1b0d0f6a40154a58",
		"52a7acc981e52687", "2d0895a350abd74f", "daf6fe1b30d18196", "95782c65618bce9f", "6f20ee7b36ab72c9",
	},
}

// TestTablesPinned: each table renders to the bytes committed above, so
// a table that moves is caught, not only one that stops being
// reproducible.
func TestTablesPinned(t *testing.T) {
	for seed, pins := range tablePins {
		tables := renderAll(t, seed)
		if len(tables) != len(pins) {
			t.Fatalf("seed %d: %d tables, %d pins", seed, len(tables), len(pins))
		}
		for i, got := range tables {
			sum := sha256.Sum256([]byte(got))
			if h := hex.EncodeToString(sum[:8]); h != pins[i] {
				t.Errorf("seed %d table %d: sha256 prefix %s, pinned %s:\n%s", seed, i+1, h, pins[i], got)
			}
		}
	}
}
