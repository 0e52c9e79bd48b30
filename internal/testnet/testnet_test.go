package testnet

import (
	"encoding/json"
	"runtime"
	"strings"
	"testing"
)

// TestLibraryScenarios runs every library scenario (the scale scenario is
// skipped under -short) and requires an empty expectation diff: the
// declared verdict matrix, health paths, drift flags and dbound bounds
// all hold.
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
// churn-storm runs probation and recovery — fails here. A change that
// moves a hash on purpose updates it and says why.
var pinnedTraceHashes = map[string]string{
	"baseline-honest":  "90595813e1be",
	"relay-attack":     "66282f33f7a0",
	"collusion":        "f66ba1f9a4c5",
	"region-drift":     "d263937881bf",
	"churn-storm":      "97a19340b428",
	"loss-degradation": "82d64be92b49",
	"scale-fleet":      "ed6a5b1de331",
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
	if _, err := ParseSpec([]byte(`{"name":"x","tenants":1,"provers":[{"name":"p","count":1,"behavior":"honest"}],"bogus":1}`)); err == nil {
		t.Fatal("unknown field silently accepted")
	}
	if _, err := ParseSpec([]byte(`{"name":"x","tenants":1,"provers":[{"name":"p","count":1,"behavior":"teleport"}]}`)); err == nil {
		t.Fatal("unknown behavior silently accepted")
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

// TestKillRefusesNextExchange: the first audit or probe after a kill
// fails at the refused dial, never on the killed member's stale warm
// connection, whichever goroutine the scheduler runs first — the reason
// lands in the trace, so the trace would otherwise depend on timing.
func TestKillRefusesNextExchange(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	spec := Spec{
		Name:     "kill-once",
		Seed:     11,
		Tenants:  1,
		Replicas: 1,
		Ticks:    12,
		// Audits every 2 s and no probe after the first: the exchange
		// right after the kill is an audit, whose reason is traced.
		AuditPeriodSec: 2,
		AuditJitter:    -1,
		ProbePeriodSec: 1000,
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
