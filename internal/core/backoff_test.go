package core

import (
	"math"
	"testing"
	"time"
)

func TestBackoffZeroValueInert(t *testing.T) {
	var b Backoff
	for attempt := 0; attempt < 5; attempt++ {
		if d := b.Delay(attempt); d != 0 {
			t.Fatalf("zero Backoff.Delay(%d) = %v, want 0", attempt, d)
		}
	}
}

func TestBackoffDeterministicGrowthAndCap(t *testing.T) {
	b := Backoff{Base: 10 * time.Millisecond, Max: 60 * time.Millisecond}
	want := []time.Duration{
		10 * time.Millisecond, // 0
		20 * time.Millisecond, // 1
		40 * time.Millisecond, // 2
		60 * time.Millisecond, // 3: 80ms capped
		60 * time.Millisecond, // 4: stays at cap
	}
	for attempt, w := range want {
		if d := b.Delay(attempt); d != w {
			t.Fatalf("Delay(%d) = %v, want %v", attempt, d, w)
		}
	}
	// Huge attempt counts must not overflow past the cap.
	if d := b.Delay(200); d != 60*time.Millisecond {
		t.Fatalf("Delay(200) = %v, want cap 60ms", d)
	}
	// Uncapped, the delay keeps doubling and saturates instead of
	// wrapping negative.
	b.Max = 0
	if d := b.Delay(3); d != 80*time.Millisecond {
		t.Fatalf("uncapped Delay(3) = %v, want 80ms", d)
	}
	if d := b.Delay(200); d != math.MaxInt64 {
		t.Fatalf("uncapped Delay(200) = %v, want saturation", d)
	}
}
