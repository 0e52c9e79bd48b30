package vclock

import (
	"sort"
	"testing"
	"time"
)

// The real clock's Sleep may end late but never early: the 1 s + 1 µs
// case checks that a duration is split into whole seconds and the
// nanoseconds left without losing either.
func TestRealSleepNeverEarly(t *testing.T) {
	for _, d := range []time.Duration{
		time.Microsecond, 999 * time.Microsecond, 5406 * time.Microsecond,
		time.Second + time.Microsecond,
	} {
		start := time.Now()
		Real{}.Sleep(d)
		if got := time.Since(start); got < d {
			t.Errorf("Sleep(%v) returned after %v", d, got)
		}
	}
}

// A non-positive sleep returns at once. The bound is for liveness only:
// a timerfd armed with a zero expiry is disarmed, and its read would
// never return.
func TestRealSleepNonPositiveReturns(t *testing.T) {
	done := make(chan struct{})
	go func() {
		for _, d := range []time.Duration{0, -time.Nanosecond, -time.Hour} {
			Real{}.Sleep(d)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("non-positive sleeps still blocked after 10s")
	}
}

// BenchmarkRealSleep sleeps the paper's 5.406 ms look-up and reports how
// late each sleep returned, beside time.Sleep for comparison.
func BenchmarkRealSleep(b *testing.B) {
	const lookup = 5406 * time.Microsecond
	for _, bc := range []struct {
		name  string
		sleep func(time.Duration)
	}{
		{"vclock.Real", Real{}.Sleep},
		{"time.Sleep", time.Sleep},
	} {
		b.Run(bc.name, func(b *testing.B) {
			late := make([]time.Duration, 0, b.N)
			for i := 0; i < b.N; i++ {
				start := time.Now()
				bc.sleep(lookup)
				late = append(late, time.Since(start)-lookup)
			}
			sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
			at := func(q float64) float64 {
				return float64(late[int(q*float64(len(late)-1))]) / 1e3
			}
			b.ReportMetric(at(0.50), "p50_late_us")
			b.ReportMetric(at(0.99), "p99_late_us")
		})
	}
}
