package testnet

import "fmt"

// Library returns the built-in scenario suite: one spec per detection
// story the paper tells, plus a production-scale stress scenario. Every
// spec pins its expected verdict matrix and fleet outcome, so the suite
// doubles as the regression harness for the whole control plane.
func Library() []Spec {
	return []Spec{
		baselineHonest(),
		relayAttack(),
		collusion(),
		regionDrift(),
		churnStorm(),
		lossDegradation(),
		scaleFleet(),
	}
}

// Lookup finds a library scenario by name.
func Lookup(name string) (Spec, error) {
	for _, s := range Library() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("testnet: no library scenario %q", name)
}

// baselineHonest: a geographically spread honest fleet stays healthy and
// accepts every audit — the control story every attack scenario diffs
// against.
func baselineHonest() Spec {
	return Spec{
		Name:        "baseline-honest",
		Description: "honest fleet across three cities: all audits accept, nobody transitions",
		Seed:        1001,
		Tenants:     12,
		Replicas:    3,
		Ticks:       40,
		Provers: []ProverGroup{
			{Name: "bne", Count: 4, Behavior: BehaviorHonest, City: "Brisbane"},
			{Name: "syd", Count: 3, Behavior: BehaviorHonest, City: "Sydney"},
			{Name: "mel", Count: 3, Behavior: BehaviorHonest, City: "Melbourne"},
		},
		Expect: Expect{
			MinAudits: 2,
			Groups: map[string]GroupExpect{
				"bne": {Verdict: "accept", Stable: true, FinalHealth: "healthy"},
				"syd": {Verdict: "accept", Stable: true, FinalHealth: "healthy"},
				"mel": {Verdict: "accept", Stable: true, FinalHealth: "healthy"},
			},
		},
	}
}

// relayAttack: provers claim Brisbane while serving from Singapore. Every
// timed round eats the relay round trip, so every audit is a timing
// reject; the health machine escalates, quarantines and finally evicts
// them.
func relayAttack() Spec {
	return Spec{
		Name:        "relay-attack",
		Description: "Singapore relays behind Brisbane fronts: timing rejects, eviction",
		Seed:        2002,
		Tenants:     8,
		Replicas:    3,
		Ticks:       50,
		EvictAfter:  2,
		Provers: []ProverGroup{
			{Name: "honest", Count: 4, Behavior: BehaviorHonest, City: "Brisbane"},
			{Name: "relay", Count: 2, Behavior: BehaviorRelay, City: "Brisbane", TrueCity: "Singapore"},
		},
		Expect: Expect{
			Groups: map[string]GroupExpect{
				"honest": {Verdict: "accept", Stable: true, FinalHealth: "healthy"},
				"relay": {
					Verdict:     "timing-reject",
					HealthPath:  []string{"healthy>suspect", "suspect>quarantined"},
					FinalHealth: "evicted",
				},
			},
		},
	}
}

// collusion: three provers claiming three cities share one Sydney store.
// The Sydney member passes (data genuinely near its verifier); the two
// fronts relay every timed round and bust Δt_max — collusion does not
// let one copy impersonate three sites.
func collusion() Spec {
	return Spec{
		Name:        "collusion",
		Description: "one shared Sydney store behind three city claims: only the Sydney member passes",
		Seed:        3003,
		Tenants:     9,
		Replicas:    3,
		Ticks:       40,
		Provers: []ProverGroup{
			{Name: "honest", Count: 3, Behavior: BehaviorHonest, City: "Brisbane"},
			{Name: "ring", Count: 3, Behavior: BehaviorCollude,
				Cities: []string{"Sydney", "Brisbane", "Melbourne"}, TrueCity: "Sydney"},
		},
		Expect: Expect{
			Groups: map[string]GroupExpect{
				"honest": {Verdict: "accept", Stable: true, FinalHealth: "healthy"},
				"ring":   {Verdict: "collude"},
			},
		},
	}
}

// regionDrift: provers move their site (verifier device in tow) from
// claimed Brisbane to Perth. The ledger stays clean — timed audits pass
// because the data is still next to the verifier — and only the landmark
// multilateration phase flags the moved sites.
func regionDrift() Spec {
	return Spec{
		Name:        "region-drift",
		Description: "sites drift Brisbane→Perth with spoofed GPS: audits accept, drift detector flags",
		Seed:        4004,
		Tenants:     8,
		Replicas:    3,
		Ticks:       40,
		Drift:       true,
		Provers: []ProverGroup{
			{Name: "honest", Count: 3, Behavior: BehaviorHonest, City: "Brisbane"},
			{Name: "drift", Count: 2, Behavior: BehaviorDrift, City: "Brisbane", TrueCity: "Perth"},
		},
		Expect: Expect{
			Groups: map[string]GroupExpect{
				"honest": {Verdict: "accept", Stable: true, FinalHealth: "healthy", Drift: false},
				"drift":  {Verdict: "accept", Stable: true, FinalHealth: "healthy", Drift: true},
			},
		},
	}
}

// churnStorm: kills, restores, graceful leaves and rejoins across an
// honest fleet. Killed provers fail their audits at their devices'
// refused dials, are demoted and quarantined, and are rehabilitated
// through probation after restore; leavers drain cleanly and rejoin
// healthy.
func churnStorm() Spec {
	return Spec{
		Name:        "churn-storm",
		Description: "kill/restore/leave/join waves over an honest fleet: demotion, probation, rehab",
		Seed:        5005,
		Tenants:     10,
		Replicas:    3,
		Ticks:       80,
		Provers: []ProverGroup{
			{Name: "fleet", Count: 6, Behavior: BehaviorHonest, City: "Brisbane"},
		},
		Churn: []ChurnEvent{
			{AtTick: 10, Action: "kill", Target: "fleet-01"},
			{AtTick: 14, Action: "kill", Target: "fleet-03"},
			{AtTick: 20, Action: "leave", Target: "fleet-05"},
			{AtTick: 30, Action: "restore", Target: "fleet-01"},
			{AtTick: 34, Action: "restore", Target: "fleet-03"},
			{AtTick: 44, Action: "join", Target: "fleet-05"},
		},
		Expect: Expect{
			Groups: map[string]GroupExpect{
				"fleet": {Verdict: "mixed", FinalHealth: "healthy", MinAcceptRate: 0.5},
			},
		},
	}
}

// lossDegradation: light packet loss stays within the failed-round
// budget and mostly accepts; heavy loss blows the budget and mostly
// rejects on rounds — degradation is visible in the matrix, not hidden
// as flakiness.
func lossDegradation() Spec {
	return Spec{
		Name:            "loss-degradation",
		Description:     "2% vs 60% packet loss under a 2-round failure budget",
		Seed:            6006,
		Tenants:         9,
		Replicas:        3,
		Ticks:           40,
		MaxFailedRounds: 2,
		Provers: []ProverGroup{
			{Name: "light", Count: 3, Behavior: BehaviorFlaky, City: "Brisbane", LossPct: 2},
			{Name: "heavy", Count: 3, Behavior: BehaviorFlaky, City: "Brisbane", LossPct: 60},
		},
		Expect: Expect{
			Groups: map[string]GroupExpect{
				"light": {Verdict: "mixed", MinAcceptRate: 0.85},
				"heavy": {Verdict: "mixed", MaxAcceptRate: 0.3},
			},
		},
	}
}

// scaleFleet: 200 provers × 1000 tenants with every adversary class in
// the mix — the production-scale determinism and throughput check. CI
// replays it twice and requires byte-identical traces.
func scaleFleet() Spec {
	return Spec{
		Name:        "scale-fleet",
		Description: "200 provers x 1000 tenants with relays, corruption and drift at production scale",
		Seed:        7007,
		Tenants:     1000,
		Replicas:    2,
		Rounds:      2,
		Ticks:       12,
		Drift:       true,
		Provers: []ProverGroup{
			{Name: "bne", Count: 80, Behavior: BehaviorHonest, City: "Brisbane"},
			{Name: "syd", Count: 60, Behavior: BehaviorHonest, City: "Sydney"},
			{Name: "relay", Count: 30, Behavior: BehaviorRelay, City: "Brisbane", TrueCity: "Singapore"},
			{Name: "rot", Count: 20, Behavior: BehaviorCorrupt, City: "Melbourne"},
			{Name: "drift", Count: 10, Behavior: BehaviorDrift, City: "Sydney", TrueCity: "Perth"},
		},
		Expect: Expect{
			Groups: map[string]GroupExpect{
				"bne":   {Verdict: "accept", Stable: true, FinalHealth: "healthy", Drift: false},
				"syd":   {Verdict: "accept", Stable: true, FinalHealth: "healthy", Drift: false},
				"relay": {Verdict: "timing-reject", Drift: true},
				"rot":   {Verdict: "mac-reject", Drift: false},
				"drift": {Verdict: "accept", Stable: true, FinalHealth: "healthy", Drift: true},
			},
		},
	}
}
