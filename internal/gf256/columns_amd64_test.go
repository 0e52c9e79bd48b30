package gf256

import (
	"testing"

	"repro/internal/cpu"
)

// TestKernelMissingFrom pins the kernel's feature decision, a pure
// function of the CPUID and XGETBV words: every required bit present says
// yes, and dropping any one of them says no and names it.
func TestKernelMissingFrom(t *testing.T) {
	const (
		ecx1 = cpu.OSXSAVE
		ebx7 = cpuidAVX512F | cpuidAVX512BW
		ecx7 = cpuidGFNI
	)
	for _, c := range []struct {
		name                      string
		maxLeaf, ecx1, ebx7, ecx7 uint32
		xcr0                      uint64
		want                      string
	}{
		{"all present", 7, ecx1, ebx7, ecx7, cpu.XCR0ZMM, ""},
		{"all present, extra bits", 0x1F, ^uint32(0), ^uint32(0), ^uint32(0), ^uint64(0), ""},
		{"no GFNI", 7, ecx1, ebx7, 0, cpu.XCR0ZMM, "GFNI"},
		{"no AVX512BW", 7, ecx1, cpuidAVX512F, ecx7, cpu.XCR0ZMM, "AVX512BW"},
		{"no AVX512F", 7, ecx1, cpuidAVX512BW, ecx7, cpu.XCR0ZMM, "AVX512F"},
		// AVX2-only XCR0 (x87, SSE, AVX): the state macOS runs a thread
		// with until its first AVX-512 instruction.
		{"XCR0 without ZMM state", 7, ecx1, ebx7, ecx7, 0x7, "ZMM state in XCR0"},
		{"XCR0 without Hi16_ZMM", 7, ecx1, ebx7, ecx7, cpu.XCR0ZMM &^ 0x80, "ZMM state in XCR0"},
		{"no OSXSAVE", 7, 0, ebx7, ecx7, 0, "OSXSAVE"},
		{"no leaf 7", 6, ecx1, ebx7, ecx7, cpu.XCR0ZMM, "CPUID leaf 7"},
	} {
		if got := kernelMissingFrom(c.maxLeaf, c.ecx1, c.ebx7, c.ecx7, c.xcr0); got != c.want {
			t.Errorf("%s: kernelMissingFrom = %q, want %q", c.name, got, c.want)
		}
	}
	if kernelMissing != detectKernel() {
		t.Fatalf("kernelMissing %q differs from a fresh detection %q", kernelMissing, detectKernel())
	}
	t.Logf("this host: kernel missing %q", kernelMissing)
}
