package geoloc

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/simnet"
)

func honestProbes(target geo.Position, seed int64) []Probe {
	m := ProbeModel{
		Target:   target,
		LastMile: simnet.DefaultLastMile,
		Rng:      rand.New(rand.NewSource(seed)),
	}
	return m.MeasureAll(AustralianLandmarks())
}

func adversarialProbes(target geo.Position, added time.Duration, seed int64) []Probe {
	m := ProbeModel{
		Target:     target,
		LastMile:   simnet.DefaultLastMile,
		AddedDelay: added,
		Rng:        rand.New(rand.NewSource(seed)),
	}
	return m.MeasureAll(AustralianLandmarks())
}

func TestGeoPingLocatesHonestTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	gp := BuildGeoPingDB(AustralianLandmarks(), AustralianCandidates(), simnet.DefaultLastMile, rng)
	// Target in Sydney: nearest delay vector must be Sydney's.
	est, err := gp.Locate(honestProbes(geo.Sydney, 2))
	if err != nil {
		t.Fatal(err)
	}
	if got := est.ErrorKm(geo.Sydney); got > 100 {
		t.Fatalf("GeoPing error %.0f km for in-database city", got)
	}
}

func TestGeoPingErrors(t *testing.T) {
	gp := &GeoPing{}
	if _, err := gp.Locate(nil); !errors.Is(err, ErrNoLandmarks) {
		t.Fatalf("no probes: %v", err)
	}
	if _, err := gp.Locate(honestProbes(geo.Sydney, 3)); err == nil {
		t.Fatal("empty database accepted")
	}
	gp = &GeoPing{DB: []GeoPingEntry{{Position: geo.Sydney, Delays: []time.Duration{1}}}}
	if _, err := gp.Locate(honestProbes(geo.Sydney, 4)); err == nil {
		t.Fatal("row/probe length mismatch accepted")
	}
}

func TestOctantLocatesHonestTarget(t *testing.T) {
	oct := &Octant{Overhead: 2 * simnet.DefaultLastMile}
	est, err := oct.Locate(honestProbes(geo.Melbourne, 5))
	if err != nil {
		t.Fatal(err)
	}
	if got := est.ErrorKm(geo.Melbourne); got > 500 {
		t.Fatalf("Octant error %.0f km", got)
	}
	if est.RadiusKm <= 0 {
		t.Fatal("Octant should report a confidence radius")
	}
}

func TestOctantEmptyIntersection(t *testing.T) {
	oct := &Octant{Overhead: 0}
	// Contradictory probes: two distant landmarks both claiming the
	// target is within ~0 km.
	probes := []Probe{
		{Landmark: Landmark{Name: "a", Position: geo.Brisbane}, RTT: time.Microsecond},
		{Landmark: Landmark{Name: "b", Position: geo.Perth}, RTT: time.Microsecond},
	}
	if _, err := oct.Locate(probes); err == nil {
		t.Fatal("impossible constraints accepted")
	}
	if _, err := oct.Locate(nil); !errors.Is(err, ErrNoLandmarks) {
		t.Fatalf("no probes: %v", err)
	}
}

func TestTBGLocatesHonestTarget(t *testing.T) {
	tbg := &TBG{Overhead: 2 * simnet.DefaultLastMile, GridStepKm: 20}
	est, err := tbg.Locate(honestProbes(geo.Adelaide, 6))
	if err != nil {
		t.Fatal(err)
	}
	if got := est.ErrorKm(geo.Adelaide); got > 500 {
		t.Fatalf("TBG error %.0f km", got)
	}
	if _, err := tbg.Locate(nil); !errors.Is(err, ErrNoLandmarks) {
		t.Fatalf("no probes: %v", err)
	}
}

func TestAdversarialDelayDegradesDelaySchemes(t *testing.T) {
	// §III-B security point: a target that adds delay drags estimates
	// away. 60 ms of added delay should visibly worsen Octant and TBG.
	target := geo.Sydney
	oct := &Octant{Overhead: 2 * simnet.DefaultLastMile}
	tbg := &TBG{Overhead: 2 * simnet.DefaultLastMile, GridStepKm: 20}

	honestOct, err := oct.Locate(honestProbes(target, 7))
	if err != nil {
		t.Fatal(err)
	}
	advOct, err := oct.Locate(adversarialProbes(target, 60*time.Millisecond, 7))
	if err != nil {
		t.Fatal(err)
	}
	// Octant's feasible region balloons: its confidence radius must
	// grow substantially under added delay.
	if advOct.RadiusKm < honestOct.RadiusKm+300 {
		t.Errorf("Octant radius %.0f -> %.0f km; expected large growth", honestOct.RadiusKm, advOct.RadiusKm)
	}

	honestT, err := tbg.Locate(honestProbes(target, 8))
	if err != nil {
		t.Fatal(err)
	}
	advT, err := tbg.Locate(adversarialProbes(target, 60*time.Millisecond, 8))
	if err != nil {
		t.Fatal(err)
	}
	if advT.RadiusKm < honestT.RadiusKm {
		t.Errorf("TBG residual %.0f -> %.0f km; expected growth under attack", honestT.RadiusKm, advT.RadiusKm)
	}
}

func TestIPMapping(t *testing.T) {
	m := &IPMapping{Table: map[string]geo.Position{"203.0.113.0/24": geo.Brisbane}}
	est, err := m.LocatePrefix("203.0.113.0/24")
	if err != nil {
		t.Fatal(err)
	}
	if est.ErrorKm(geo.Brisbane) != 0 {
		t.Fatal("registered prefix should map exactly")
	}
	if _, err := m.LocatePrefix("198.51.100.0/24"); err == nil {
		t.Fatal("unknown prefix accepted")
	}
	if _, err := m.Locate(nil); err == nil {
		t.Fatal("probe-based Locate should be rejected")
	}
	// The registry lies: the provider re-registered the prefix in
	// Brisbane while hosting in Perth — zero signal for the scheme.
	if est.ErrorKm(geo.Perth) < 3000 {
		t.Fatal("sanity: Perth must be far from the registered location")
	}
}

func TestProbeRTTGrowsWithDistance(t *testing.T) {
	m := ProbeModel{Target: geo.Perth, LastMile: simnet.DefaultLastMile, Rng: rand.New(rand.NewSource(9))}
	near := m.Measure(Landmark{Name: "adl", Position: geo.Adelaide})
	far := m.Measure(Landmark{Name: "bne", Position: geo.Brisbane})
	if far.RTT <= near.RTT {
		t.Fatalf("RTT: far=%v near=%v", far.RTT, near.RTT)
	}
}

func TestEstimateErrorKm(t *testing.T) {
	e := Estimate{Position: geo.Brisbane}
	if e.ErrorKm(geo.Brisbane) != 0 {
		t.Fatal("self error nonzero")
	}
	if e.ErrorKm(geo.Perth) < 3000 {
		t.Fatal("Brisbane-Perth error too small")
	}
}
