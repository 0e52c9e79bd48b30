//go:build race

package core

// raceEnabled: under the race detector sync.Pool drops a share of its
// Puts on purpose, so a pooled path allocates now and then.
const raceEnabled = true
