package crypt

import "repro/internal/cpu"

// aesniMissing is "" when the eight-lane tag kernel (tag_amd64.s) may run
// on this host, else the CPU feature that stops it. It is read from the
// CPU once, at package initialisation, before any Tagger is built.
var aesniMissing = detectAESNI()

func detectAESNI() string {
	_, _, ecx1, _ := cpu.CPUID(1, 0)
	return aesniMissingFrom(ecx1)
}

// cpuidAES is CPUID leaf 1 ECX bit 25: AESENC, AESENCLAST and
// AESKEYGENASSIST.
const cpuidAES = 1 << 25

// aesniMissingFrom decides, from CPUID leaf 1 ECX, whether the tag kernel
// may run: "" if so, else the missing feature. Every other instruction it
// uses is SSE2, which every amd64 CPU has.
func aesniMissingFrom(ecx1 uint32) string {
	if ecx1&cpuidAES == 0 {
		return "AES-NI"
	}
	return ""
}

// expandKey128 writes key's eleven AES-128 round keys to rk, by
// AESKEYGENASSIST: no table is indexed by key bytes.
//
//go:noescape
func expandKey128(key *[16]byte, rk *[176]byte)

// cbcmac8 encrypts the eight chain states x under the round keys rk, then
// n times XORs into each lane l the next 16-byte block of the run at
// src + l*stride and encrypts again: n CBC steps of eight chains at once.
// The caller guarantees src[7*stride+16*n-1] is in bounds.
//
//go:noescape
func cbcmac8(rk *[176]byte, x *[8][16]byte, src *byte, stride, n int)
