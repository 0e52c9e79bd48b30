// Package gps simulates the GPS receiver in GeoProof's tamper-proof
// verifier device. GPS signals can be spoofed by satellite simulators
// (§V-C), so a receiver can report a spoofed fix in place of its true
// one; the TPA checks whatever fix the transcript carries against the
// SLA region.
package gps

import (
	"math/rand"

	"repro/internal/geo"
)

// Receiver is a simulated GPS unit. NoiseKm models ordinary fix error;
// Spoof, when set, replaces the fix entirely (a satellite-simulator
// attack).
type Receiver struct {
	True    geo.Position
	NoiseKm float64
	Spoof   *geo.Position
	Rng     *rand.Rand
}

// Fix returns the receiver's position reading.
func (r *Receiver) Fix() geo.Position {
	if r.Spoof != nil {
		return *r.Spoof
	}
	if r.NoiseKm <= 0 || r.Rng == nil {
		return r.True
	}
	// Jitter the fix within a NoiseKm disc (small-angle approximation).
	dLat := (r.Rng.Float64()*2 - 1) * r.NoiseKm / 111.0
	dLon := (r.Rng.Float64()*2 - 1) * r.NoiseKm / 111.0
	return geo.Position{LatDeg: r.True.LatDeg + dLat, LonDeg: r.True.LonDeg + dLon}
}
