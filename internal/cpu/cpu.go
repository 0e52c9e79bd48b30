// Package cpu reads the x86 feature words the amd64 kernels are chosen
// from: CPUID leaves and XCR0, the register through which the operating
// system says which vector state it saves across context switches.
//
// It holds the instructions only. Each kernel's package keeps its own pure
// decision function from these words to "runs" or the name of the missing
// feature, and that function's test, so a kernel's requirements are read
// where its assembly is: gf256's GFNI column kernel, crypt's VAES tag and
// CTR kernels and prp's AVX-512 Feistel kernel. Off amd64 every word
// reads zero.
package cpu

// OSXSAVE is CPUID leaf 1 ECX bit 27: the OS enabled XSAVE, so XGETBV may
// run and XCR0 says which register state it saves.
const OSXSAVE = 1 << 27

// XCR0YMM is XCR0 bits 1 and 2: the OS saves XMM and the upper halves of
// YMM across context switches, so an AVX kernel's registers survive
// preemption.
const XCR0YMM = 0x6

// XCR0ZMM is XCR0 bits 1, 2, 5, 6 and 7: the OS saves XMM, YMM, opmask,
// the upper halves of ZMM0–15 and ZMM16–31 across context switches, so an
// AVX-512 kernel's registers survive preemption.
const XCR0ZMM = 0xE6

// XCR0 returns extended control register 0, or 0 when CPUID says the OS
// has not enabled XGETBV, on which the instruction faults.
func XCR0() uint64 {
	if _, _, ecx1, _ := CPUID(1, 0); ecx1&OSXSAVE == 0 {
		return 0
	}
	lo, hi := xgetbv()
	return uint64(hi)<<32 | uint64(lo)
}
