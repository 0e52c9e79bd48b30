package geoloc

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/simnet"
)

// randAustralianPos samples a position inside the continental bounding
// box the landmark set spans, keeping every property-test target within
// multilateration range of the vantage points.
func randAustralianPos(rng *rand.Rand) geo.Position {
	return geo.Position{
		LatDeg: -38 + rng.Float64()*18, // -38 .. -20
		LonDeg: 117 + rng.Float64()*35, // 117 .. 152
	}
}

// driftProbes measures the landmark set against a target that is truly at
// truth, with seeded jitter so the property test is reproducible.
func driftProbes(truth geo.Position, jitter time.Duration, rng *rand.Rand) []Probe {
	m := &ProbeModel{
		Target:   truth,
		LastMile: simnet.DefaultLastMile,
		Jitter:   jitter,
		Rng:      rng,
	}
	return m.MeasureAll(AustralianLandmarks())
}

// TestDriftDetectionProperty: over many seeded trials, an honest prover
// (actually at its claimed position) must never be flagged, and a prover
// that drifted far out of its claimed region (≥1200 km) must always be
// flagged — with the estimate landing closer to where the data really is
// than to the cover story.
func TestDriftDetectionProperty(t *testing.T) {
	const (
		trials     = 25
		jitter     = 2 * time.Millisecond
		minDriftKm = 1200.0
	)
	for seed := int64(1); seed <= trials; seed++ {
		rng := rand.New(rand.NewSource(seed))
		claimed := randAustralianPos(rng)

		// Honest: the site is where it says it is.
		honest, err := DetectDrift(claimed, driftProbes(claimed, jitter, rng))
		if err != nil {
			t.Fatalf("seed %d: honest DetectDrift: %v", seed, err)
		}
		if honest.Drifted {
			t.Errorf("seed %d: honest prover at (%.2f,%.2f) flagged as drifted: %v",
				seed, claimed.LatDeg, claimed.LonDeg, honest)
		}

		// Drifted: the site actually sits somewhere far from the claim.
		var truth geo.Position
		for {
			truth = randAustralianPos(rng)
			if truth.DistanceKm(claimed) >= minDriftKm {
				break
			}
		}
		drifted, err := DetectDrift(claimed, driftProbes(truth, jitter, rng))
		if err != nil {
			t.Fatalf("seed %d: drifted DetectDrift: %v", seed, err)
		}
		if !drifted.Drifted {
			t.Errorf("seed %d: prover claiming (%.2f,%.2f) but at (%.2f,%.2f) (%.0f km away) not flagged: %v",
				seed, claimed.LatDeg, claimed.LonDeg, truth.LatDeg, truth.LonDeg,
				truth.DistanceKm(claimed), drifted)
		}
		if toTruth := drifted.Estimate.ErrorKm(truth); toTruth >= drifted.DeviationKm {
			t.Errorf("seed %d: estimate %.0f km from truth but only %.0f km from the false claim — multilateration should side with physics",
				seed, toTruth, drifted.DeviationKm)
		}
	}
}

// TestDetectDriftDefaults pins the scheme and threshold DetectDrift uses.
func TestDetectDriftDefaults(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	rep, err := DetectDrift(geo.Adelaide, driftProbes(geo.Adelaide, 0, rng))
	if err != nil {
		t.Fatalf("DetectDrift: %v", err)
	}
	if DriftThresholdKm != 500 {
		t.Fatalf("threshold = %d km, want 500", DriftThresholdKm)
	}
	if rep.Estimate.Scheme != "TBG" {
		t.Fatalf("default scheme = %q, want TBG", rep.Estimate.Scheme)
	}
	if rep.Drifted {
		t.Fatalf("noise-free honest Adelaide flagged: %v", rep)
	}
	if _, err := DetectDrift(geo.Adelaide, nil); err == nil {
		t.Fatal("DetectDrift with no probes should error")
	}
}
