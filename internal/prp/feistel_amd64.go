package prp

import "repro/internal/cpu"

// kernelMissing is "" when the 64-lane AVX-512 table kernel
// (feistel_amd64.s) may run on this host, else the feature that stops it,
// read once at package initialisation.
var kernelMissing = detectKernel()

func detectKernel() string {
	maxLeaf, _, _, _ := cpu.CPUID(0, 0)
	_, _, ecx1, _ := cpu.CPUID(1, 0)
	var ebx7 uint32
	if maxLeaf >= 7 {
		_, ebx7, _, _ = cpu.CPUID(7, 0)
	}
	return kernelMissingFrom(maxLeaf, ecx1, ebx7, cpu.XCR0())
}

// cpuidAVX512F is CPUID leaf 7 subleaf 0 EBX bit 16.
const cpuidAVX512F = 1 << 16

// kernelMissingFrom decides, from CPUID leaf 0 EAX (maxLeaf), leaf 1 ECX,
// leaf 7 subleaf 0 EBX and XCR0, whether the table kernel may run: "" if
// so, else the first missing feature. Every instruction it uses is
// AVX-512 Foundation (VEXTRACTI64X4, not DQ's VEXTRACTI32X8).
func kernelMissingFrom(maxLeaf, ecx1, ebx7 uint32, xcr0 uint64) string {
	switch {
	case ecx1&cpu.OSXSAVE == 0:
		return "OSXSAVE"
	case xcr0&cpu.XCR0ZMM != cpu.XCR0ZMM:
		// macOS enables AVX-512 state lazily, on a thread's first use.
		return "ZMM state in XCR0"
	case maxLeaf < 7:
		return "CPUID leaf 7"
	case ebx7&cpuidAVX512F == 0:
		return "AVX512F"
	}
	return ""
}

// indexBlock64 runs the table rounds over the 64 consecutive positions
// whose first is (l, r), r < a, 64 ≤ a: rows rows of a uint32s each from
// tab. It writes each position's l·a + r to dst[0..63] and returns the
// mask of the lanes whose value is at least n, the ones still to
// cycle-walk. The caller guarantees a ≤ 2²⁰, so no dword sum wraps.
//
//go:noescape
func indexBlock64(tab *uint32, a uint32, rows int, l, r uint32, n uint64, dst *[64]uint64) (walk uint64)
