package gf256

import "repro/internal/cpu"

// kernelMissing is "" when the GFNI column kernel may run on this host,
// else the feature that stops it. It is read from the CPU once, at package
// initialisation, before any Reducer is built.
var kernelMissing = detectKernel()

func detectKernel() string {
	maxLeaf, _, _, _ := cpu.CPUID(0, 0)
	_, _, ecx1, _ := cpu.CPUID(1, 0)
	var ebx7, ecx7 uint32
	if maxLeaf >= 7 {
		_, ebx7, ecx7, _ = cpu.CPUID(7, 0)
	}
	return kernelMissingFrom(maxLeaf, ecx1, ebx7, ecx7, cpu.XCR0())
}

// CPUID bits the kernel needs beyond cpu.OSXSAVE and XCR0's cpu.XCR0ZMM.
const (
	cpuidAVX512F  = 1 << 16 // leaf 7 EBX
	cpuidAVX512BW = 1 << 30 // leaf 7 EBX
	cpuidGFNI     = 1 << 8  // leaf 7 ECX
)

// kernelMissingFrom decides, from CPUID leaf 0 EAX (maxLeaf), leaf 1 ECX,
// leaf 7 subleaf 0 EBX and ECX and XCR0, whether the column kernel may
// run: "" if so, else the first missing feature. The kernel uses 512-bit
// GFNI affine products, byte-masked loads and 32 ZMM registers.
func kernelMissingFrom(maxLeaf, ecx1, ebx7, ecx7 uint32, xcr0 uint64) string {
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
	case ebx7&cpuidAVX512BW == 0:
		return "AVX512BW"
	case ecx7&cpuidGFNI == 0:
		return "GFNI"
	}
	return ""
}

// reduceColumns16 is ReduceColumns16's pass, after its checks: src points
// at column col of row 0, and mask has one bit per column run.
//
//go:noescape
func reduceColumns16(mats *[8][64]byte, rem *[32][16]byte, src *byte, stride, steps int, mask uint64)
