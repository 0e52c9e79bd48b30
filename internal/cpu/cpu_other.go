//go:build !amd64

package cpu

// CPUID reads zero off amd64, where no kernel consults it.
func CPUID(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32) { return 0, 0, 0, 0 }

func xgetbv() (eax, edx uint32) { return 0, 0 }
