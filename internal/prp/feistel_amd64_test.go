package prp

import (
	"testing"

	"repro/internal/cpu"
)

// TestKernelMissingFrom pins the table kernel's feature decision, a pure
// function of the CPUID and XGETBV words: every required bit present says
// yes, and dropping any one of them says no and names it.
func TestKernelMissingFrom(t *testing.T) {
	for _, c := range []struct {
		name                string
		maxLeaf, ecx1, ebx7 uint32
		xcr0                uint64
		want                string
	}{
		{"all present", 7, cpu.OSXSAVE, cpuidAVX512F, cpu.XCR0ZMM, ""},
		{"all present, extra bits", 0x1F, ^uint32(0), ^uint32(0), ^uint64(0), ""},
		{"no AVX512F", 7, cpu.OSXSAVE, ^uint32(cpuidAVX512F), cpu.XCR0ZMM, "AVX512F"},
		// AVX2-only XCR0 (x87, SSE, AVX): the state macOS runs a thread
		// with until its first AVX-512 instruction.
		{"XCR0 without ZMM state", 7, cpu.OSXSAVE, cpuidAVX512F, 0x7, "ZMM state in XCR0"},
		{"XCR0 without Hi16_ZMM", 7, cpu.OSXSAVE, cpuidAVX512F, cpu.XCR0ZMM &^ 0x80, "ZMM state in XCR0"},
		{"XCR0 without opmask", 7, cpu.OSXSAVE, cpuidAVX512F, cpu.XCR0ZMM &^ 0x20, "ZMM state in XCR0"},
		{"no OSXSAVE", 7, 0, cpuidAVX512F, 0, "OSXSAVE"},
		{"no leaf 7", 6, cpu.OSXSAVE, cpuidAVX512F, cpu.XCR0ZMM, "CPUID leaf 7"},
	} {
		if got := kernelMissingFrom(c.maxLeaf, c.ecx1, c.ebx7, c.xcr0); got != c.want {
			t.Errorf("%s: kernelMissingFrom = %q, want %q", c.name, got, c.want)
		}
	}
	if kernelMissing != detectKernel() {
		t.Fatalf("kernelMissing %q differs from a fresh detection %q", kernelMissing, detectKernel())
	}
	t.Logf("this host: table kernel missing %q", kernelMissing)
}
