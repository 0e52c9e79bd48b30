// Package vclock provides the clock abstraction that lets GeoProof's timed
// distance-bounding phase run both against the real wall clock (for live
// TCP audits) and against a deterministic virtual clock (for the simulated
// network substrate that replaces the paper's physical testbed).
package vclock

import (
	"context"
	"sync"
	"time"
)

// Clock supplies the current time and a way to spend time. Protocol code
// never calls time.Now directly; it is handed a Clock.
type Clock interface {
	// Now returns the current instant.
	Now() time.Time
	// Sleep advances past d: the real clock blocks, the virtual clock
	// simply jumps forward.
	Sleep(d time.Duration)
}

// Real is the wall clock.
type Real struct{}

var _ Clock = Real{}

// Now returns time.Now().
func (Real) Now() time.Time { return time.Now() }

// Sleep blocks for at least d and returns at once for d ≤ 0. It is how a
// prover models a disk look-up, so it must end on time, and time.Sleep
// does not: when no goroutine is runnable, the Go runtime waits for its
// next timer in epoll_wait with a timeout in whole milliseconds — 5 ms,
// then a full 1 ms for the 0.406 ms left — so a 5.406 ms sleep returns
// 0.6–1.1 ms late. On Linux Sleep therefore waits on a timerfd in
// the netpoller (sleep_linux.go), which wakes epoll_wait at the deadline
// itself; the cost is a timerfd_settime and two reads per sleep, a few
// µs, and up to maxIdleTimers idle descriptors. Where that wait is not
// available it falls back to time.Sleep. SleepContext keeps the runtime
// timer: its waits are cancellable and need no sub-ms precision.
func (Real) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	if !preciseSleep(d) {
		time.Sleep(d)
	}
}

// Virtual is a manually advanced clock. The zero value is not ready; use
// NewVirtual. Virtual is safe for concurrent use.
type Virtual struct {
	mu  sync.Mutex
	now time.Time
}

var _ Clock = (*Virtual)(nil)

// NewVirtual returns a virtual clock starting at the given instant. A zero
// start is replaced by a fixed epoch so that durations are always
// well-defined.
func NewVirtual(start time.Time) *Virtual {
	if start.IsZero() {
		start = time.Date(2012, 6, 18, 0, 0, 0, 0, time.UTC) // ICDCS'12 week
	}
	return &Virtual{now: start}
}

// Now returns the current virtual instant.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Sleep advances the virtual clock by d. Negative durations are ignored so
// a buggy caller cannot move time backwards.
func (v *Virtual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	v.now = v.now.Add(d)
}

// Advance is an explicit alias of Sleep for simulator code, where
// "advance" reads better than "sleep".
func (v *Virtual) Advance(d time.Duration) { v.Sleep(d) }

// Set moves the clock to t if t is not before the current instant;
// attempts to rewind are ignored, preserving monotonicity.
func (v *Virtual) Set(t time.Time) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if t.After(v.now) {
		v.now = t
	}
}

// SleepContext spends d on the clock while honouring ctx. On the real
// clock it blocks on a timer and returns early (with ctx.Err) when the
// context is cancelled; on any other clock it advances virtual time
// immediately — the seam that lets retry backoffs and reconcile delays
// stay cancellable in production yet cost zero wall time and replay
// deterministically in simulation.
func SleepContext(c Clock, ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	if _, real := c.(Real); !real && c != nil {
		c.Sleep(d)
		return ctx.Err()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
