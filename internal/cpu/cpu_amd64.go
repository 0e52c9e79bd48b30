package cpu

// CPUID executes CPUID with EAX=leaf and ECX=subleaf.
func CPUID(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0; XCR0 checks OSXSAVE first.
func xgetbv() (eax, edx uint32)
