package crypt

import "repro/internal/cpu"

// vaesMissing is "" when the VAES kernels (kernel_amd64.s) — the fused
// segment tag kernel and the AES-256-CTR kernel — may run on this host,
// else the CPU feature that stops them. It is read from the CPU once, at
// package initialisation, before any Tagger is built.
var vaesMissing = detectVAES()

func detectVAES() string {
	maxLeaf, _, _, _ := cpu.CPUID(0, 0)
	_, _, ecx1, _ := cpu.CPUID(1, 0)
	var ebx7, ecx7 uint32
	if maxLeaf >= 7 {
		_, ebx7, ecx7, _ = cpu.CPUID(7, 0)
	}
	return vaesMissingFrom(maxLeaf, ecx1, ebx7, ecx7, cpu.XCR0())
}

// CPUID bits the kernels need beyond cpu.OSXSAVE and XCR0's cpu.XCR0YMM.
const (
	cpuidAES  = 1 << 25 // leaf 1 ECX: AESKEYGENASSIST, for the key schedules
	cpuidAVX  = 1 << 28 // leaf 1 ECX: VEX encoding
	cpuidAVX2 = 1 << 5  // leaf 7 EBX: VPSHUFB, VPADDQ, VINSERTI128 on YMM
	cpuidVAES = 1 << 9  // leaf 7 ECX: VAESENC and VAESENCLAST on YMM
)

// vaesMissingFrom decides, from CPUID leaf 0 EAX (maxLeaf), leaf 1 ECX,
// leaf 7 subleaf 0 EBX and ECX and XCR0, whether the VAES kernels may
// run: "" if so, else the first missing feature. Every CPU with VAES has
// AVX2, but the kernels' integer YMM instructions are AVX2's, so it is
// checked too.
func vaesMissingFrom(maxLeaf, ecx1, ebx7, ecx7 uint32, xcr0 uint64) string {
	switch {
	case ecx1&cpuidAES == 0:
		return "AES-NI"
	case ecx1&cpuidAVX == 0:
		return "AVX"
	case ecx1&cpu.OSXSAVE == 0:
		return "OSXSAVE"
	case xcr0&cpu.XCR0YMM != cpu.XCR0YMM:
		return "YMM state in XCR0"
	case maxLeaf < 7:
		return "CPUID leaf 7"
	case ebx7&cpuidAVX2 == 0:
		return "AVX2"
	case ecx7&cpuidVAES == 0:
		return "VAES"
	}
	return ""
}

// expandKey128 writes key's eleven AES-128 round keys to rk, by
// AESKEYGENASSIST: no table is indexed by key bytes.
//
//go:noescape
func expandKey128(key *[16]byte, rk *[176]byte)

// expandKey256 writes key's fifteen AES-256 round keys to rk, by
// AESKEYGENASSIST.
//
//go:noescape
func expandKey256(key *[32]byte, rk *[240]byte)

// tagSlab16 runs the segment tags of groups × 16 consecutive segments of
// the slab at slab, as a (tagArgs) describes them, and stores each tag in
// its segment's slot, or, when bad is not nil, ORs into bad[i] whether
// segment i's slot differs from its tag. The caller guarantees every
// byte it reads is in bounds (Tagger.kernelGroups).
//
//go:noescape
func tagSlab16(a *tagArgs, slab *byte, bad *bool, groups int)

// ctr256 XORs groups × 256 bytes at data with AES-256-CTR keystream under
// the doubled round keys rk, from counter block ctr on. Only the
// counter's low 64 bits advance: the caller guarantees they do not wrap.
//
//go:noescape
func ctr256(rk *[15][32]byte, ctr *[16]byte, data *byte, groups int)
