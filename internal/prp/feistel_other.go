//go:build !amd64

package prp

// The 64-lane table kernel is amd64 assembly; elsewhere IndexBatch takes
// the portable four-lane path only.
var kernelMissing = "amd64"

func indexBlock64(tab *uint32, a uint32, rows int, l, r uint32, n uint64, dst *[64]uint64) (walk uint64) {
	panic("prp: no table kernel on this architecture")
}
