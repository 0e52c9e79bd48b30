//go:build !amd64

package crypt

// The VAES kernels are amd64 assembly; elsewhere Taggers take the
// portable four-lane path only and EncryptCTRAt the standard library's.
var vaesMissing = "amd64"

func expandKey128(key *[16]byte, rk *[176]byte) {
	panic("crypt: no AES kernel on this architecture")
}

func expandKey256(key *[32]byte, rk *[240]byte) {
	panic("crypt: no AES kernel on this architecture")
}

func tagSlab16(a *tagArgs, slab *byte, bad *bool, groups int) {
	panic("crypt: no tag kernel on this architecture")
}

func ctr256(rk *[15][32]byte, ctr *[16]byte, data *byte, groups int) {
	panic("crypt: no CTR kernel on this architecture")
}
