// Package geoloc implements the baseline Internet geolocation schemes the
// paper reviews in §III-B — GeoPing, an Octant-style constraint scheme,
// topology-based geolocation (TBG) and IP-address-mapping — so that
// experiment E9 can compare their accuracy and security against GeoProof.
//
// The paper's key criticisms, which the implementations make measurable:
// worst-case errors beyond 1000 km, and no adversary model — a malicious
// target that *delays* probe replies drags every delay-based estimate
// away from the truth, whereas GeoProof's one-sided timing bound can only
// ever make the prover look farther, never closer.
package geoloc

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/geo"
)

// ErrNoLandmarks is returned when a scheme receives no usable probes.
var ErrNoLandmarks = errors.New("geoloc: need at least one landmark probe")

// Landmark is a reference host with known position.
type Landmark struct {
	Name     string
	Position geo.Position
}

// Probe is one latency measurement from a landmark to the target.
type Probe struct {
	Landmark Landmark
	RTT      time.Duration
}

// Estimate is a scheme's answer: a position, an uncertainty radius and
// the scheme that produced it.
type Estimate struct {
	Scheme   string
	Position geo.Position
	// RadiusKm is the scheme's own confidence radius (0 when the scheme
	// gives a point estimate only).
	RadiusKm float64
}

// ErrorKm returns the distance between the estimate and the true
// position.
func (e Estimate) ErrorKm(truth geo.Position) float64 {
	return e.Position.DistanceKm(truth)
}

// Scheme locates a target from landmark probes.
type Scheme interface {
	Name() string
	Locate(probes []Probe) (Estimate, error)
}

// rttToDistanceKm converts a measured RTT into a one-way distance bound
// at Internet speed after subtracting fixed overhead (last-mile and
// stack), clamped at zero.
func rttToDistanceKm(rtt, overhead time.Duration) float64 {
	adj := rtt - overhead
	if adj < 0 {
		adj = 0
	}
	return geo.MaxDistanceKm(adj, geo.SpeedInternetKmPerMs)
}

// GeoPing locates the target by nearest-neighbour search in delay space
// against a database of delay vectors measured to hosts at known
// locations (§III-B: "a ready made database of delay measurements from
// fixed locations").
type GeoPing struct {
	// DB maps a candidate location to its reference delay vector, one
	// entry per landmark in the same order as the probes.
	DB []GeoPingEntry
}

// GeoPingEntry is one database row.
type GeoPingEntry struct {
	Position geo.Position
	Delays   []time.Duration
}

var _ Scheme = (*GeoPing)(nil)

// Name returns the scheme name.
func (*GeoPing) Name() string { return "GeoPing" }

// Locate returns the database location whose delay vector is closest (in
// L2 norm) to the observed probe vector.
func (g *GeoPing) Locate(probes []Probe) (Estimate, error) {
	if len(probes) == 0 {
		return Estimate{}, ErrNoLandmarks
	}
	if len(g.DB) == 0 {
		return Estimate{}, errors.New("geoloc: GeoPing has an empty database")
	}
	best := -1
	bestDist := math.Inf(1)
	for i, entry := range g.DB {
		if len(entry.Delays) != len(probes) {
			return Estimate{}, fmt.Errorf("geoloc: database row %d has %d delays for %d probes", i, len(entry.Delays), len(probes))
		}
		var d2 float64
		for j, p := range probes {
			diff := float64(p.RTT-entry.Delays[j]) / float64(time.Millisecond)
			d2 += diff * diff
		}
		if d2 < bestDist {
			bestDist = d2
			best = i
		}
	}
	return Estimate{Scheme: g.Name(), Position: g.DB[best].Position}, nil
}

// Octant is a constraint-intersection scheme (§III-B, [45]): each
// landmark's RTT yields a maximum distance ring (at 2/3 c per the Octant
// paper; we use the configured speed), and the target must lie in the
// intersection. The estimate is the centroid of the feasible region on a
// search grid.
type Octant struct {
	// Overhead is subtracted from each RTT before conversion.
	Overhead time.Duration
	// GridStepKm controls the search resolution (default 25 km).
	GridStepKm float64
}

var _ Scheme = (*Octant)(nil)

// Name returns the scheme name.
func (*Octant) Name() string { return "Octant" }

// Locate grid-searches the bounding box of all landmark constraint discs
// and returns the centroid of feasible points.
func (o *Octant) Locate(probes []Probe) (Estimate, error) {
	if len(probes) == 0 {
		return Estimate{}, ErrNoLandmarks
	}
	step := o.GridStepKm
	if step <= 0 {
		step = 25
	}
	// Bounding box over all constraint discs.
	minLat, maxLat := math.Inf(1), math.Inf(-1)
	minLon, maxLon := math.Inf(1), math.Inf(-1)
	radii := make([]float64, len(probes))
	for i, p := range probes {
		radii[i] = rttToDistanceKm(p.RTT, o.Overhead)
		dLat := radii[i] / 111.0 // km per degree latitude
		dLon := radii[i] / (111.0 * math.Cos(p.Landmark.Position.LatDeg*math.Pi/180))
		minLat = math.Min(minLat, p.Landmark.Position.LatDeg-dLat)
		maxLat = math.Max(maxLat, p.Landmark.Position.LatDeg+dLat)
		minLon = math.Min(minLon, p.Landmark.Position.LonDeg-dLon)
		maxLon = math.Max(maxLon, p.Landmark.Position.LonDeg+dLon)
	}
	stepLat := step / 111.0
	// Half a grid diagonal of slack keeps tight constraint discs (e.g. a
	// landmark co-located with the target) from slipping between grid
	// points.
	slack := step * 0.75
	var sumLat, sumLon float64
	var count int
	for lat := minLat; lat <= maxLat; lat += stepLat {
		stepLon := step / (111.0 * math.Max(0.2, math.Cos(lat*math.Pi/180)))
		for lon := minLon; lon <= maxLon; lon += stepLon {
			pt := geo.Position{LatDeg: lat, LonDeg: lon}
			ok := true
			for i, p := range probes {
				if pt.DistanceKm(p.Landmark.Position) > radii[i]+slack {
					ok = false
					break
				}
			}
			if ok {
				sumLat += lat
				sumLon += lon
				count++
			}
		}
	}
	if count == 0 {
		return Estimate{}, errors.New("geoloc: Octant constraints have empty intersection")
	}
	centroid := geo.Position{LatDeg: sumLat / float64(count), LonDeg: sumLon / float64(count)}
	// Confidence radius ≈ radius of a disc with the feasible area.
	area := float64(count) * step * step
	return Estimate{
		Scheme:   o.Name(),
		Position: centroid,
		RadiusKm: math.Sqrt(area / math.Pi),
	}, nil
}

// TBG approximates topology-based geolocation (§III-B, [23]): per-probe
// distance estimates, then a grid-refined least-squares multilateration
// over landmark positions.
type TBG struct {
	Overhead time.Duration
	// PathStretch, when > 1, divides each delay-derived distance to undo
	// routing inflation: real routes are not geodesics, so a calibrated
	// scheme that knows the typical stretch factor (e.g.
	// simnet.DefaultPathStretch) recovers great-circle distances instead
	// of overestimating every ring by that factor.
	PathStretch float64
	GridStepKm  float64
}

var _ Scheme = (*TBG)(nil)

// Name returns the scheme name.
func (*TBG) Name() string { return "TBG" }

// Locate minimises Σ (|x-L_i| - d_i)² over a coarse-to-fine grid.
func (t *TBG) Locate(probes []Probe) (Estimate, error) {
	if len(probes) == 0 {
		return Estimate{}, ErrNoLandmarks
	}
	dists := make([]float64, len(probes))
	for i, p := range probes {
		dists[i] = rttToDistanceKm(p.RTT, t.Overhead)
		if t.PathStretch > 1 {
			dists[i] /= t.PathStretch
		}
	}
	// Start from the landmark centroid and refine.
	var lat, lon float64
	for _, p := range probes {
		lat += p.Landmark.Position.LatDeg
		lon += p.Landmark.Position.LonDeg
	}
	center := geo.Position{LatDeg: lat / float64(len(probes)), LonDeg: lon / float64(len(probes))}

	cost := func(pt geo.Position) float64 {
		var c float64
		for i, p := range probes {
			r := pt.DistanceKm(p.Landmark.Position) - dists[i]
			c += r * r
		}
		return c
	}
	best := center
	bestCost := cost(center)
	span := 2000.0 // km search half-width
	step := t.GridStepKm
	if step <= 0 {
		step = 25
	}
	for span >= step {
		improved := true
		for improved {
			improved = false
			for _, d := range []struct{ dLat, dLon float64 }{
				{span / 111, 0}, {-span / 111, 0},
				{0, span / 111}, {0, -span / 111},
			} {
				cand := geo.Position{LatDeg: best.LatDeg + d.dLat, LonDeg: best.LonDeg + d.dLon}
				if c := cost(cand); c < bestCost {
					best, bestCost = cand, c
					improved = true
				}
			}
		}
		span /= 2
	}
	return Estimate{Scheme: t.Name(), Position: best, RadiusKm: math.Sqrt(bestCost / float64(len(probes)))}, nil
}

// IPMapping models GeoTrack/GeoCluster-style database geolocation
// (§III-B): the target's address prefix is looked up in a WHOIS/DNS-
// derived table. Accuracy is whatever the table says — including stale or
// deliberately falsified entries, which is the paper's security point.
type IPMapping struct {
	Table map[string]geo.Position // prefix → registered location
}

var _ Scheme = (*IPMapping)(nil)

// Name returns the scheme name.
func (*IPMapping) Name() string { return "IP-mapping" }

// Locate ignores probes; kept for interface symmetry.
func (m *IPMapping) Locate([]Probe) (Estimate, error) {
	return Estimate{}, errors.New("geoloc: IPMapping locates by prefix; use LocatePrefix")
}

// LocatePrefix returns the registered location of the prefix.
func (m *IPMapping) LocatePrefix(prefix string) (Estimate, error) {
	pos, ok := m.Table[prefix]
	if !ok {
		return Estimate{}, fmt.Errorf("geoloc: prefix %q not in database", prefix)
	}
	return Estimate{Scheme: m.Name(), Position: pos}, nil
}
