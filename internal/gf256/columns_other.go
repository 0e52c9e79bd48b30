//go:build !amd64

package gf256

// The GFNI column kernel is amd64 assembly; elsewhere Reducers take the
// portable kernels only.
var kernelMissing = "amd64"

func reduceColumns16(mats *[8][64]byte, rem *[32][16]byte, src *byte, stride, steps int, mask uint64) {
	panic("gf256: no column kernel on this architecture")
}
