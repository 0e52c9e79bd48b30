//go:build !linux

package vclock

import "time"

// preciseSleep has no timerfd to wait on outside Linux: it reports that
// it did not sleep, and Real.Sleep falls back to time.Sleep.
func preciseSleep(time.Duration) bool { return false }
