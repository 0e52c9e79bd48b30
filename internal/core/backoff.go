package core

import (
	"math"
	"time"
)

// Backoff computes doubling retry delays. It is the one retry-timing
// policy shared by the scheduler's attempt retries and the fleet
// controller's quarantine delay, so "how fast do we hammer a struggling
// prover" is decided in exactly one place:
//
//	d = min(Base·2^attempt, Max)
//
// The zero value is inert (every delay is 0); Max 0 leaves the delay
// uncapped. Backoff is a value type, safe to copy and to share.
type Backoff struct {
	// Base is the attempt-0 delay. Non-positive means no delay at all.
	Base time.Duration
	// Max caps the delay (0 = uncapped).
	Max time.Duration
}

// Delay returns the sleep before retry number attempt (0-based).
func (b Backoff) Delay(attempt int) time.Duration {
	if b.Base <= 0 {
		return 0
	}
	limit := b.Max
	if limit <= 0 {
		limit = math.MaxInt64
	}
	d := b.Base
	for i := 0; i < attempt && d < limit; i++ {
		if d > limit/2 {
			return limit
		}
		d *= 2
	}
	return min(d, limit)
}
