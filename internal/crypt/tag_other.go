//go:build !amd64

package crypt

// The eight-lane tag kernel is amd64 assembly; elsewhere Taggers take the
// portable four-lane path only.
var aesniMissing = "amd64"

func expandKey128(key *[16]byte, rk *[176]byte) {
	panic("crypt: no tag kernel on this architecture")
}

func cbcmac8(rk *[176]byte, x *[8][16]byte, src *byte, stride, n int) {
	panic("crypt: no tag kernel on this architecture")
}
