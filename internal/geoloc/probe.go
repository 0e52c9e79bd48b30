package geoloc

import (
	"math/rand"
	"time"

	"repro/internal/geo"
	"repro/internal/simnet"
)

// ProbeModel generates landmark→target RTT measurements from the same
// Internet latency model simnet uses, with an optional adversarial delay:
// a malicious target can always *add* latency to probe replies (it cannot
// remove propagation time), which biases every delay-based scheme away
// from the truth.
type ProbeModel struct {
	Target geo.Position
	// Adversarial delay the target adds to each probe reply.
	AddedDelay time.Duration
	// LastMile and jitter configure the underlying link model.
	LastMile time.Duration
	Jitter   time.Duration
	Rng      *rand.Rand
}

// Measure produces one probe from the landmark to the target.
func (m *ProbeModel) Measure(l Landmark) Probe {
	link := simnet.InternetLink{
		DistanceKm: l.Position.DistanceKm(m.Target),
		LastMile:   m.LastMile,
		Jitter:     m.Jitter,
	}
	rtt := link.OneWay(m.Rng) + link.OneWay(m.Rng) + m.AddedDelay
	return Probe{Landmark: l, RTT: rtt}
}

// MeasureAll probes the target from every landmark.
func (m *ProbeModel) MeasureAll(landmarks []Landmark) []Probe {
	out := make([]Probe, len(landmarks))
	for i, l := range landmarks {
		out[i] = m.Measure(l)
	}
	return out
}

// BuildGeoPingDB constructs a GeoPing reference database by measuring
// every candidate location from every landmark with an honest (no added
// delay) model. Candidates typically come from the geo city catalog.
func BuildGeoPingDB(landmarks []Landmark, candidates []geo.Position, lastMile time.Duration, rng *rand.Rand) *GeoPing {
	db := make([]GeoPingEntry, len(candidates))
	for i, c := range candidates {
		model := ProbeModel{Target: c, LastMile: lastMile, Rng: rng}
		probes := model.MeasureAll(landmarks)
		delays := make([]time.Duration, len(probes))
		for j, p := range probes {
			delays[j] = p.RTT
		}
		db[i] = GeoPingEntry{Position: c, Delays: delays}
	}
	return &GeoPing{DB: db}
}

// AustralianLandmarks returns a standard landmark set spanning the
// continent, mirroring the paper's Table III vantage points.
func AustralianLandmarks() []Landmark {
	return []Landmark{
		{Name: "Brisbane", Position: geo.Brisbane},
		{Name: "Sydney", Position: geo.Sydney},
		{Name: "Melbourne", Position: geo.Melbourne},
		{Name: "Adelaide", Position: geo.Adelaide},
		{Name: "Perth", Position: geo.Perth},
		{Name: "Townsville", Position: geo.Townsville},
		{Name: "Hobart", Position: geo.Hobart},
	}
}

// AustralianCandidates returns candidate city positions for GeoPing-style
// databases.
func AustralianCandidates() []geo.Position {
	return []geo.Position{
		geo.Brisbane, geo.Sydney, geo.Melbourne, geo.Adelaide,
		geo.Perth, geo.Townsville, geo.Hobart, geo.Armidale,
	}
}
