package dbound

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// These tests pin the security story of §III-A as a table over
// protocol × adversary: every attack model genuinely defeats a *naive*
// verifier (too few rounds, or no meaningful timing bound), and the same
// attack is caught once the verifier enforces a realistic round budget
// and RTT bound. The two deliberate exceptions — terrorist collusion
// against Hancke-Kuhn and Brands-Chaum — are pinned too, because they
// are the reason the Reid protocol exists.

// tableIIISydneyRTT is the Brisbane→Sydney round trip the paper's
// Table III measured: the extra delay any metro-area relay of the timed
// phase must eat per round.
const tableIIISydneyRTT = 34 * time.Millisecond

// realisticConfig is a LAN-budget verifier: 32 rounds and a 2 ms bound
// over a 1 ms honest RTT, the bit-level analogue of GeoProof's §V-C
// budget. At n=32 every guessing-class attack has success ≤ (3/4)^32
// ≈ 1e-4.
func realisticConfig(rng *rand.Rand) Config { return testConfig(rng, 32) }

// attackCase builds one adversary class around an honest prover.
type attackCase struct {
	name string
	// build wraps the honest prover of an n-round session.
	build func(p Prover, n int, rng *rand.Rand) (Prover, error)
	// analytic is the attack's per-protocol acceptance probability.
	analytic func(proto Protocol, n int) float64
	// beatsTiming reports that the adversary answers from next to the
	// verifier (or early), so the timing check alone cannot catch it —
	// only response-bit verification can.
	beatsTiming bool
}

func attackCases() []attackCase {
	return []attackCase{
		{
			name: "guessing",
			build: func(_ Prover, _ int, rng *rand.Rand) (Prover, error) {
				return &GuessingProver{Rng: rng}, nil
			},
			analytic:    func(p Protocol, n int) float64 { return GuessSuccessAgainst(p, n) },
			beatsTiming: true,
		},
		{
			name: "pre-ask-relay",
			build: func(p Prover, n int, rng *rand.Rand) (Prover, error) {
				return NewPreAskRelay(p, n, rng), nil
			},
			analytic:    PreAskSuccess,
			beatsTiming: true,
		},
		{
			name: "terrorist",
			build: func(p Prover, _ int, rng *rand.Rand) (Prover, error) {
				return NewTerroristAccomplice(p, rng)
			},
			analytic:    TerroristSuccess,
			beatsTiming: true,
		},
		{
			name: "distance-fraud",
			build: func(p Prover, _ int, rng *rand.Rand) (Prover, error) {
				return NewDistanceFraud(p, rng)
			},
			analytic:    DistanceFraudSuccess,
			beatsTiming: true,
		},
	}
}

// TestAttacksDefeatNaiveVerifier: with a naive 2-round verifier every
// adversary's empirical acceptance rate matches its analytic success —
// and for the register protocols that success is substantial (≥ 1/4), so
// the naive verifier really is broken, not just weakened.
func TestAttacksDefeatNaiveVerifier(t *testing.T) {
	const (
		n      = 2
		trials = 1500
		slack  = 0.05 // ≈4.5σ at p=0.5, trials=1500
	)
	for _, proto := range allProtocols() {
		for _, ac := range attackCases() {
			rng := rand.New(rand.NewSource(101))
			accepted := 0
			for i := 0; i < trials; i++ {
				p, c, err := proto.Pair([]byte("secret"), n, rng)
				if err != nil {
					t.Fatalf("%s: %v", proto.Name(), err)
				}
				adv, err := ac.build(p, n, rng)
				if err != nil {
					t.Fatalf("%s/%s: %v", proto.Name(), ac.name, err)
				}
				res, _, err := Run(testConfig(rng, n), adv, c)
				if err != nil {
					// A protocol abort (e.g. a secretless guesser cannot
					// even open Brands-Chaum's commitment) is a failed
					// attack, not a test failure.
					continue
				}
				if res.Accepted {
					accepted++
				}
			}
			rate := float64(accepted) / trials
			want := ac.analytic(proto, n)
			if math.Abs(rate-want) > slack {
				t.Errorf("%s/%s: naive acceptance rate %.3f, analytic %.3f",
					proto.Name(), ac.name, rate, want)
			}
			if want >= 0.25 && rate < 0.15 {
				t.Errorf("%s/%s: attack should defeat the naive verifier (rate %.3f)",
					proto.Name(), ac.name, rate)
			}
		}
	}
}

// TestAttacksCaughtAtRealisticBudget: at 32 rounds under the LAN budget,
// every guessing-class attack is rejected essentially always — except
// terrorist collusion against Hancke-Kuhn and Brands-Chaum, which
// succeeds *by design* (key-independent round material / untimed
// closing); that exception is the §III-A lineage argument for Reid.
func TestAttacksCaughtAtRealisticBudget(t *testing.T) {
	const trials = 300
	for _, proto := range allProtocols() {
		for _, ac := range attackCases() {
			rng := rand.New(rand.NewSource(202))
			accepted, timingViolations := 0, 0
			for i := 0; i < trials; i++ {
				cfg := realisticConfig(rng)
				p, c, err := proto.Pair([]byte("secret"), cfg.Rounds, rng)
				if err != nil {
					t.Fatalf("%s: %v", proto.Name(), err)
				}
				adv, err := ac.build(p, cfg.Rounds, rng)
				if err != nil {
					t.Fatalf("%s/%s: %v", proto.Name(), ac.name, err)
				}
				res, _, err := Run(cfg, adv, c)
				if err != nil {
					continue // protocol abort = attack failed (see above)
				}
				if res.Accepted {
					accepted++
				}
				timingViolations += res.TimingViolations
			}
			want := ac.analytic(proto, 32)
			if want == 1 {
				// The pinned exceptions: collusion beats HK and BC at any
				// round budget.
				if accepted != trials {
					t.Errorf("%s/%s: collusion should always succeed, accepted %d/%d",
						proto.Name(), ac.name, accepted, trials)
				}
			} else if accepted > 1 { // E[accepts] = trials·want ≤ 0.04
				t.Errorf("%s/%s: %d/%d accepted at realistic budget (analytic %.2g)",
					proto.Name(), ac.name, accepted, trials, want)
			}
			if ac.beatsTiming && timingViolations != 0 {
				t.Errorf("%s/%s: local adversary tripped the timing bound %d times — it must be the bit check that catches it",
					proto.Name(), ac.name, timingViolations)
			}
		}
	}
}

// delayedProver wraps an honest prover behind extra network distance; it
// answers correctly but late.
type delayedProver struct {
	real  Prover
	extra time.Duration
}

// Init relays initialisation (untimed, delay irrelevant).
func (d *delayedProver) Init(nonceV []byte) ([]byte, error) { return d.real.Init(nonceV) }

// Respond relays and adds the extra round-trip distance.
func (d *delayedProver) Respond(i int, c byte) (byte, time.Duration, bool) {
	bit, extra, early := d.real.Respond(i, c)
	return bit, extra + d.extra, early
}

// Finalize relays the closing.
func (d *delayedProver) Finalize() ([]byte, error) { return d.real.Finalize() }

// TestRelayCaughtByTimingOnly: a pure relay of an *honest* far prover
// produces perfectly correct bits, so a verifier without a realistic RTT
// bound accepts it outright; the 2 ms bound rejects it on timing in every
// round. This is the check GeoProof inherits: distance shows up as time.
func TestRelayCaughtByTimingOnly(t *testing.T) {
	checkCaughtByTimingOnly(t, tableIIISydneyRTT, 303)
}

// TestDelayedHonestProverRejectedOnTiming: a few milliseconds of extra
// distance are caught as surely as a Table III Sydney leg.
func TestDelayedHonestProverRejectedOnTiming(t *testing.T) {
	checkCaughtByTimingOnly(t, 5*time.Millisecond, 2)
}

// checkCaughtByTimingOnly runs every protocol behind an honest prover
// delayed by delay: a 100 ms bound accepts it, the 2 ms bound rejects
// every round on timing.
func checkCaughtByTimingOnly(t *testing.T, delay time.Duration, seed int64) {
	t.Helper()
	for _, proto := range allProtocols() {
		name := fmt.Sprintf("%s+%v", proto.Name(), delay)
		rng := rand.New(rand.NewSource(seed))
		p, c, err := proto.Pair([]byte("secret"), 16, rng)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}

		// Naive verifier: generous 100 ms bound — the relay walks in.
		naive := testConfig(rng, 16)
		naive.TMax = 100 * time.Millisecond
		res, _, err := Run(naive, &delayedProver{real: p, extra: delay}, c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Accepted {
			t.Errorf("%s: honest relay should defeat a verifier without an RTT bound: %v", name, res.Reason)
		}

		// Realistic bound: every round busts Δt_max.
		p, c, err = proto.Pair([]byte("secret"), 16, rng)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, _, err = Run(testConfig(rng, 16), &delayedProver{real: p, extra: delay}, c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Accepted {
			t.Errorf("%s: delayed prover accepted under the 2 ms bound", name)
		}
		if res.TimingViolations != 16 {
			t.Errorf("%s: %d/16 timing violations, want all rounds over bound", name, res.TimingViolations)
		}
		if !errors.Is(res.Reason, ErrTiming) {
			t.Errorf("%s: reason %v, want ErrTiming", name, res.Reason)
		}
		if res.MaxRTT < delay {
			t.Errorf("%s: MaxRTT %v below the relay leg %v", name, res.MaxRTT, delay)
		}
	}
}
