package testnet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"repro/internal/geo"
)

// Spec is a declarative scenario: the fleet to spin up (prover groups
// with behaviors and cities), the tenant population, the churn script,
// an optional geolocation-drift phase, and the expected outcome the
// orchestrator diffs the run against. A Spec is
// plain data — build it in Go or load it from a JSON fixture with
// ParseSpec — and together with Seed it fully determines the run.
type Spec struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Seed drives every random stream in the scenario: the simnet's
	// jitter draws (drift probes included), the provers' packet loss, the
	// fleet controller's per-prover jitter and each tenant TPA's
	// challenge nonces.
	Seed int64 `json:"seed"`

	// Tenants is the tenant population; each tenant encodes one private
	// file of FileBytes (default 2048) placed on Replicas provers
	// (default min(3, fleet size)) round-robin.
	Tenants   int `json:"tenants"`
	FileBytes int `json:"fileBytes,omitempty"`
	Replicas  int `json:"replicas,omitempty"`
	// Rounds is the challenge rounds K per audit (default 4).
	Rounds int `json:"rounds,omitempty"`

	// Ticks is the scenario length: one fleet reconcile tick + one
	// virtual second per tick (default 60).
	Ticks int `json:"ticks"`
	// AuditPeriodSec paces the fleet controller (default 10 virtual
	// seconds).
	AuditPeriodSec int `json:"auditPeriodSec,omitempty"`
	// AuditJitter spreads re-audit periods (seeded; default 0.2).
	// Negative disables jitter entirely.
	AuditJitter float64 `json:"auditJitter,omitempty"`
	// EvictAfter evicts a prover on its N-th quarantine (0 = never).
	EvictAfter int `json:"evictAfter,omitempty"`

	// SLARadiusKm is the contracted region's radius around the
	// Australian centroid (default 2800 km — continent-wide, so the GPS
	// position check passes for any catalog city and detection falls to
	// the timing bound and the drift detector, the paper's point).
	SLARadiusKm float64 `json:"slaRadiusKm,omitempty"`
	// TMaxMs overrides the policy Δt_max (default: the paper's 16 ms).
	TMaxMs float64 `json:"tMaxMs,omitempty"`
	// MaxFailedRounds is the per-audit lost-round budget (default 0).
	MaxFailedRounds int `json:"maxFailedRounds,omitempty"`

	Provers []ProverGroup `json:"provers"`
	Churn   []ChurnEvent  `json:"churn,omitempty"`
	// Drift enables the post-run geolocation phase: every live prover's
	// site is pinged from the continental landmarks over the scenario's
	// network, multilaterated and compared against its claimed city.
	Drift  bool   `json:"drift,omitempty"`
	Expect Expect `json:"expect"`
}

// ProverGroup declares Count provers sharing one behavior. Member i is
// named "<group>-<i>" and claims Cities[i%len(Cities)] (or City, default
// Brisbane).
type ProverGroup struct {
	Name  string `json:"name"`
	Count int    `json:"count"`
	// Behavior is one of:
	//   honest   — data at the claimed site;
	//   relay    — SLA names the claimed city, data lives at TrueCity;
	//              every timed round eats the relay round trip (Fig. 6);
	//   collude  — the whole group shares ONE backing store at TrueCity;
	//              members claiming TrueCity serve locally, the rest are
	//              relay fronts;
	//   drift    — site and verifier device really sit at TrueCity while
	//              the GPS fix is spoofed to the claimed city; audits
	//              pass (data is near the verifier) and only the
	//              geolocation drift phase can flag it;
	//   corrupt  — honest site with CorruptFraction of every file's
	//              segments bit-rotted at setup;
	//   flaky    — honest site behind a link losing LossPct% of packets.
	Behavior string   `json:"behavior"`
	City     string   `json:"city,omitempty"`
	Cities   []string `json:"cities,omitempty"`
	TrueCity string   `json:"trueCity,omitempty"`

	CorruptFraction float64 `json:"corruptFraction,omitempty"`
	LossPct         float64 `json:"lossPct,omitempty"`
}

// ChurnEvent is one scripted fleet change, applied before the tick runs.
type ChurnEvent struct {
	AtTick int `json:"atTick"`
	// Action is one of:
	//   kill    — the prover's node goes down: its device's dials are
	//             refused and live streams reset, so its audits fail;
	//   restore — the node comes back up;
	//   leave   — graceful deregistration (in-flight audits drain);
	//   join    — re-register a previously departed member.
	Action string `json:"action"`
	Target string `json:"target"`
}

// Expect declares the verdict matrix and fleet outcome the run must
// produce; every violation becomes one line of Result.Diff.
type Expect struct {
	// Groups keys GroupExpect by ProverGroup.Name.
	Groups map[string]GroupExpect `json:"groups,omitempty"`
	// MinAudits requires at least this many recorded audits per
	// still-registered prover (default 1).
	MinAudits int `json:"minAudits,omitempty"`
}

// GroupExpect pins one group's outcome.
type GroupExpect struct {
	// Verdict classifies every member's matrix cells:
	//   accept         — only accepted audits;
	//   timing-reject  — only Δt_max rejections;
	//   mac-reject     — only segment-MAC rejections;
	//   rounds-reject  — only failed-round rejections;
	//   collude        — members claiming TrueCity accept-only, the rest
	//                    timing-reject-only;
	//   mixed          — no per-cell constraint.
	Verdict string `json:"verdict,omitempty"`
	// MinAcceptRate / MaxAcceptRate bound accepted/total over the
	// group's audits (MaxAcceptRate 0 means "unset" — use Verdict for
	// exact-zero claims).
	MinAcceptRate float64 `json:"minAcceptRate,omitempty"`
	MaxAcceptRate float64 `json:"maxAcceptRate,omitempty"`
	// FinalHealth, when set, is every member's status at the end:
	// healthy, suspect, probation, quarantined, evicted, or gone
	// (deregistered).
	FinalHealth string `json:"finalHealth,omitempty"`
	// HealthPath, when set, is the exact prefix of every member's
	// transition sequence, as "from>to" steps.
	HealthPath []string `json:"healthPath,omitempty"`
	// Stable requires zero health transitions on every member.
	Stable bool `json:"stable,omitempty"`
	// Drift, when the spec runs the drift phase, is whether every member
	// must be flagged by the drift detector (false = no member may be
	// flagged).
	Drift bool `json:"drift,omitempty"`
}

// Cities maps catalog city names usable in specs to positions.
func Cities() map[string]geo.Position {
	return map[string]geo.Position{
		"Brisbane":   geo.Brisbane,
		"Armidale":   geo.Armidale,
		"Sydney":     geo.Sydney,
		"Townsville": geo.Townsville,
		"Melbourne":  geo.Melbourne,
		"Adelaide":   geo.Adelaide,
		"Hobart":     geo.Hobart,
		"Perth":      geo.Perth,
		"Singapore":  geo.Singapore,
		"Auckland":   geo.Auckland,
	}
}

// australiaCentroid anchors the default SLA region; with the default
// 2800 km radius it contains every Australian catalog city and excludes
// Singapore and Auckland.
var australiaCentroid = geo.Position{LatDeg: -27, LonDeg: 134}

// Behaviors, validated by Spec.Validate.
const (
	BehaviorHonest  = "honest"
	BehaviorRelay   = "relay"
	BehaviorCollude = "collude"
	BehaviorDrift   = "drift"
	BehaviorCorrupt = "corrupt"
	BehaviorFlaky   = "flaky"
)

// ParseSpec decodes a JSON scenario fixture, rejecting unknown fields so
// a typo in a fixture fails loudly instead of silently defaulting.
func ParseSpec(data []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("testnet: parse spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// withDefaults returns the spec with every optional knob resolved.
func (s Spec) withDefaults() Spec {
	if s.FileBytes <= 0 {
		s.FileBytes = 2048
	}
	if s.Rounds <= 0 {
		s.Rounds = 4
	}
	if s.Ticks <= 0 {
		s.Ticks = 60
	}
	if s.AuditPeriodSec <= 0 {
		s.AuditPeriodSec = 10
	}
	switch {
	case s.AuditJitter == 0:
		s.AuditJitter = 0.2
	case s.AuditJitter < 0:
		s.AuditJitter = 0
	}
	if s.SLARadiusKm <= 0 {
		s.SLARadiusKm = 2800
	}
	total := 0
	for _, g := range s.Provers {
		total += g.Count
	}
	if s.Replicas <= 0 {
		s.Replicas = 3
	}
	if s.Replicas > total && total > 0 {
		s.Replicas = total
	}
	if s.Expect.MinAudits <= 0 {
		s.Expect.MinAudits = 1
	}
	return s
}

// Validate checks the spec's structural invariants.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("testnet: spec needs a name")
	}
	if s.Tenants <= 0 {
		return fmt.Errorf("testnet: spec %q needs at least one tenant", s.Name)
	}
	if len(s.Provers) == 0 {
		return fmt.Errorf("testnet: spec %q needs at least one prover group", s.Name)
	}
	cities := Cities()
	cityOK := func(name string) bool {
		_, ok := cities[name]
		return ok
	}
	seen := map[string]bool{}
	for _, g := range s.Provers {
		if g.Name == "" || g.Count <= 0 {
			return fmt.Errorf("testnet: spec %q: group needs a name and a positive count", s.Name)
		}
		if seen[g.Name] {
			return fmt.Errorf("testnet: spec %q: duplicate group %q", s.Name, g.Name)
		}
		seen[g.Name] = true
		switch g.Behavior {
		case BehaviorHonest, BehaviorCorrupt, BehaviorFlaky:
		case BehaviorRelay, BehaviorCollude, BehaviorDrift:
			if g.TrueCity == "" {
				return fmt.Errorf("testnet: spec %q: group %q behavior %q needs trueCity", s.Name, g.Name, g.Behavior)
			}
		default:
			return fmt.Errorf("testnet: spec %q: group %q has unknown behavior %q", s.Name, g.Name, g.Behavior)
		}
		if g.City != "" && !cityOK(g.City) {
			return fmt.Errorf("testnet: spec %q: group %q: unknown city %q", s.Name, g.Name, g.City)
		}
		for _, c := range g.Cities {
			if !cityOK(c) {
				return fmt.Errorf("testnet: spec %q: group %q: unknown city %q", s.Name, g.Name, c)
			}
		}
		if g.TrueCity != "" && !cityOK(g.TrueCity) {
			return fmt.Errorf("testnet: spec %q: group %q: unknown trueCity %q", s.Name, g.Name, g.TrueCity)
		}
	}
	for _, ev := range s.Churn {
		switch ev.Action {
		case "kill", "restore", "leave", "join":
		default:
			return fmt.Errorf("testnet: spec %q: unknown churn action %q", s.Name, ev.Action)
		}
		if ev.Target == "" {
			return fmt.Errorf("testnet: spec %q: churn event needs a target", s.Name)
		}
		if ev.AtTick < 0 {
			return fmt.Errorf("testnet: spec %q: churn tick must be ≥ 0", s.Name)
		}
	}
	for name, ge := range s.Expect.Groups {
		if !seen[name] {
			return fmt.Errorf("testnet: spec %q: expectation for unknown group %q", s.Name, name)
		}
		switch ge.Verdict {
		case "", "accept", "timing-reject", "mac-reject", "rounds-reject", "collude", "mixed":
		default:
			return fmt.Errorf("testnet: spec %q: group %q: unknown expected verdict %q", s.Name, name, ge.Verdict)
		}
	}
	return nil
}

// memberName is the canonical per-member naming scheme.
func memberName(group string, i int) string { return fmt.Sprintf("%s-%02d", group, i) }

// claimedCity resolves member i's claimed city name.
func (g ProverGroup) claimedCity(i int) string {
	if len(g.Cities) > 0 {
		return g.Cities[i%len(g.Cities)]
	}
	if g.City != "" {
		return g.City
	}
	return "Brisbane"
}

// sortedGroupNames returns expectation group names in stable order.
func sortedGroupNames(m map[string]GroupExpect) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// virtualStart anchors every scenario's virtual clock so traces carry
// stable absolute timestamps.
var virtualStart = time.Unix(1700000000, 0)
