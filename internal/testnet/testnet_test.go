package testnet

import (
	"context"
	"encoding/json"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestLibraryScenarios runs every library scenario (the scale scenario is
// skipped under -short) and requires an empty expectation diff: the
// declared verdict matrix, health paths and drift flags all hold.
func TestLibraryScenarios(t *testing.T) {
	for _, spec := range Library() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			if spec.Name == "scale-fleet" && testing.Short() {
				t.Skip("scale scenario skipped in -short mode")
			}
			res, err := Run(spec)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			for _, d := range res.Diff {
				t.Errorf("expectation violated: %s", d)
			}
			if res.Accepted+res.Rejected+res.Timeouts+res.Errors == 0 {
				t.Fatal("scenario recorded no audits at all")
			}
		})
	}
}

// pinnedTraceHashes are the library scenarios' trace hashes (the first
// 12 hex digits, as geonet replay prints them). Replay only compares two
// runs of one build; these pin the trace across builds, so a change to
// when the fleet controller demotes, quarantines, readmits or evicts a
// prover — relay-attack walks healthy → suspect → quarantined → evicted,
// churn-storm's killed provers fail their audits at the device's refused
// dial, then run probation and recovery — or to what an audit crossing
// TPA → device → prover observes, fails here. A change that moves a hash
// on purpose updates it and says why.
var pinnedTraceHashes = map[string]string{
	"baseline-honest":  "d6901ff038f9",
	"relay-attack":     "2dea3d6a87c2",
	"collusion":        "3c6de201e7fc",
	"region-drift":     "0b96a52c5a04",
	"churn-storm":      "691e872a242c",
	"loss-degradation": "b5dfe3a3394f",
	"scale-fleet":      "1868041eb0c8",
}

// TestLibraryTraceHashesPinned runs every library scenario once (the
// scale scenario outside -short only) and compares its trace hash with
// the pinned value.
func TestLibraryTraceHashesPinned(t *testing.T) {
	lib := Library()
	if len(lib) != len(pinnedTraceHashes) {
		t.Fatalf("library has %d scenarios, %d hashes pinned", len(lib), len(pinnedTraceHashes))
	}
	for _, spec := range lib {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			if spec.Name == "scale-fleet" && testing.Short() {
				t.Skip("scale scenario skipped in -short mode")
			}
			want, ok := pinnedTraceHashes[spec.Name]
			if !ok {
				t.Fatalf("no pinned trace hash for %q", spec.Name)
			}
			res, err := Run(spec)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if got := res.Hash[:12]; got != want {
				t.Fatalf("trace hash %s, pinned %s", got, want)
			}
		})
	}
}

// TestReplayBitIdentical replays representative scenarios — including
// every adversarial phase — and requires byte-identical traces.
func TestReplayBitIdentical(t *testing.T) {
	for _, name := range []string{"relay-attack", "region-drift", "churn-storm"} {
		spec, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Replay(spec); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestScaleFleetReplay is the acceptance check: the 200-prover ×
// 1000-tenant scenario replays bit-identically.
func TestScaleFleetReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("scale replay skipped in -short mode")
	}
	spec, err := Lookup("scale-fleet")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Replay(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Diff) > 0 {
		t.Fatalf("scale scenario failed expectations: %v", res.Diff)
	}
}

// TestSpecJSONRoundTrip: a spec survives the JSON fixture path, and
// unknown fields are rejected.
func TestSpecJSONRoundTrip(t *testing.T) {
	orig := relayAttack()
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseSpec(data)
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if parsed.Name != orig.Name || parsed.Seed != orig.Seed || len(parsed.Provers) != len(orig.Provers) {
		t.Fatalf("round trip mangled the spec: %+v", parsed)
	}
	drift := regionDrift()
	if data, err = json.Marshal(drift); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"drift":true`) {
		t.Fatalf("drift phase not encoded as \"drift\": true: %s", data)
	}
	if parsed, err = ParseSpec(data); err != nil || !parsed.Drift {
		t.Fatalf("\"drift\": true did not round-trip: %+v, %v", parsed, err)
	}
	if _, err := ParseSpec([]byte(`{"name":"x","tenants":1,"provers":[{"name":"p","count":1,"behavior":"honest"}],"bogus":1}`)); err == nil {
		t.Fatal("unknown field silently accepted")
	}
	for _, bad := range []string{
		`{"name":"x","tenants":1,"provers":[{"name":"p","count":1,"behavior":"teleport"}]}`,
		// The bit-level distance-bounding phase, the delay behaviour, the
		// drift phase's settings object, the probe period and the ledger's
		// epoch retention are gone; old fixtures fail.
		`{"name":"x","tenants":1,"provers":[{"name":"p","count":1,"behavior":"honest"}],"dbound":{}}`,
		`{"name":"x","tenants":1,"provers":[{"name":"p","count":1,"behavior":"honest"}],"probePeriodSec":2}`,
		`{"name":"x","tenants":1,"provers":[{"name":"p","count":1,"behavior":"honest"}],"retainEpochs":4}`,
		`{"name":"x","tenants":1,"provers":[{"name":"p","count":1,"behavior":"delay"}]}`,
		`{"name":"x","tenants":1,"provers":[{"name":"p","count":1,"behavior":"honest"}],"drift":{}}`,
	} {
		if _, err := ParseSpec([]byte(bad)); err == nil {
			t.Errorf("ParseSpec accepted %s", bad)
		}
	}
}

// TestValidateRejectsBrokenSpecs pins the validator's error surface.
func TestValidateRejectsBrokenSpecs(t *testing.T) {
	base := func() Spec {
		return Spec{
			Name: "v", Tenants: 1,
			Provers: []ProverGroup{{Name: "p", Count: 1, Behavior: BehaviorHonest}},
		}
	}
	cases := []struct {
		name   string
		break_ func(*Spec)
	}{
		{"no name", func(s *Spec) { s.Name = "" }},
		{"no tenants", func(s *Spec) { s.Tenants = 0 }},
		{"no provers", func(s *Spec) { s.Provers = nil }},
		{"relay without trueCity", func(s *Spec) { s.Provers[0].Behavior = BehaviorRelay }},
		{"removed delay behavior", func(s *Spec) { s.Provers[0].Behavior = "delay" }},
		{"unknown city", func(s *Spec) { s.Provers[0].City = "Atlantis" }},
		{"duplicate group", func(s *Spec) { s.Provers = append(s.Provers, s.Provers[0]) }},
		{"bad churn action", func(s *Spec) { s.Churn = []ChurnEvent{{Action: "explode", Target: "p-00"}} }},
		{"expectation for unknown group", func(s *Spec) {
			s.Expect.Groups = map[string]GroupExpect{"ghost": {}}
		}},
		{"unknown expected verdict", func(s *Spec) {
			s.Expect.Groups = map[string]GroupExpect{"p": {Verdict: "vibes"}}
		}},
	}
	for _, tc := range cases {
		s := base()
		tc.break_(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: validator accepted a broken spec", tc.name)
		}
	}
}

// TestAssertReplayPinpointsDivergence: the diff helper names the first
// differing line rather than just "hashes differ".
func TestAssertReplayPinpointsDivergence(t *testing.T) {
	if err := AssertReplay("a\nb\nc", "a\nb\nc"); err != nil {
		t.Fatalf("equal traces diffed: %v", err)
	}
	err := AssertReplay("a\nb\nc", "a\nX\nc")
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("divergence not pinpointed: %v", err)
	}
	err = AssertReplay("a\nb", "a\nb\nc")
	if err == nil || !strings.Contains(err.Error(), "length") {
		t.Fatalf("length divergence not reported: %v", err)
	}
	if TraceHash("x") == TraceHash("y") {
		t.Fatal("distinct traces hash equal")
	}
}

// TestKillRefusesNextExchange: the first audit after a kill fails at the
// device's refused dial, never on its stale warm connection to the killed
// prover, whichever goroutine the scheduler runs first — the reason lands
// in the trace, so the trace would otherwise depend on timing.
func TestKillRefusesNextExchange(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	spec := Spec{
		Name:     "kill-once",
		Seed:     11,
		Tenants:  1,
		Replicas: 1,
		Ticks:    12,
		// Audits every 2 s, the only exchange there is: the one right
		// after the kill fails, and its reason is traced.
		AuditPeriodSec: 2,
		AuditJitter:    -1,
		Provers:        []ProverGroup{{Name: "solo", Count: 1, Behavior: BehaviorHonest, City: "Brisbane"}},
		Churn:          []ChurnEvent{{AtTick: 4, Action: "kill", Target: "solo-00"}},
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected != 0 || !strings.Contains(res.Trace, "connection refused") {
		t.Fatalf("a killed member's audits must fail at the refused dial, not as rejects (%d):\n%s", res.Rejected, res.Trace)
	}
}

// TestTranscriptFromAnotherDeviceRejected: each member's device signs
// with its own key, so a transcript one device signed fails the
// signature check of the TPA a tenant keeps for any other device, and
// passes its own device's.
func TestTranscriptFromAnotherDeviceRejected(t *testing.T) {
	spec := Spec{
		Name:     "device-keys",
		Seed:     13,
		Tenants:  1,
		Replicas: 2,
		Provers:  []ProverGroup{{Name: "p", Count: 2, Behavior: BehaviorHonest, City: "Brisbane"}},
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	w, err := newWorld(spec.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	tn, a, b := w.tenants[0], w.members[0], w.members[1]
	tpaA, err := w.deviceTPA(tn, a)
	if err != nil {
		t.Fatal(err)
	}
	tpaB, err := w.deviceTPA(tn, b)
	if err != nil {
		t.Fatal(err)
	}
	req, err := tpaA.NewRequest(tn.ef.FileID, tn.ef.Layout, w.spec.Rounds)
	if err != nil {
		t.Fatal(err)
	}
	// b's device runs the audit and signs its transcript.
	st, err := core.DeviceRunner{Pool: w.pool, Addr: vnode(b.name)}.RunAudit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if rep := tpaA.VerifyAudit(req, tn.ef.Layout, st); rep.SignatureOK || rep.Accepted {
		t.Fatalf("%s's TPA accepted a transcript %s's device signed: %+v", a.name, b.name, rep)
	}
	if rep := tpaB.VerifyAudit(req, tn.ef.Layout, st); !rep.Accepted {
		t.Fatalf("%s's TPA rejected its own device's transcript: %s", b.name, rep.Reason())
	}
}
