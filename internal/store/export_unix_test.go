//go:build unix

package store

import "repro/internal/blockfile"

// GatherStrip is the 16-byte gather's strip length, so the tests can
// place batch lengths and faults on the seams between strips.
const GatherStrip = blockfile.GatherStrip
