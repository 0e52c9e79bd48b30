// Package gps simulates the GPS receiver in GeoProof's tamper-proof
// verifier device. GPS signals can be spoofed by satellite simulators
// (§V-C), so a receiver can report a spoofed fix in place of its true
// one; the TPA checks whatever fix the transcript carries against the
// SLA region.
package gps

import "repro/internal/geo"

// Receiver is a simulated GPS unit. Spoof, when set, replaces the fix
// entirely (a satellite-simulator attack).
type Receiver struct {
	True  geo.Position
	Spoof *geo.Position
}

// Fix returns the receiver's position reading.
func (r *Receiver) Fix() geo.Position {
	if r.Spoof != nil {
		return *r.Spoof
	}
	return r.True
}
