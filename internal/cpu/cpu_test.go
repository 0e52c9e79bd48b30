package cpu

import (
	"encoding/binary"
	"runtime"
	"testing"
)

// TestCPUIDResults checks that CPUID's results land in the words its
// signature names: leaf 0's EBX, EDX and ECX spell a twelve-byte vendor
// string of printable ASCII ("GenuineIntel", "AuthenticAMD", …), which
// EAX's small leaf count, a zero or a misplaced stack word would not. Off
// amd64 everything reads zero.
func TestCPUIDResults(t *testing.T) {
	maxLeaf, ebx, ecx, edx := CPUID(0, 0)
	if runtime.GOARCH != "amd64" {
		if maxLeaf|ebx|ecx|edx != 0 || XCR0() != 0 {
			t.Fatalf("CPUID or XCR0 nonzero on %s", runtime.GOARCH)
		}
		return
	}
	if maxLeaf == 0 {
		t.Fatal("CPUID leaf 0 reports no further leaves")
	}
	var vendor [12]byte
	binary.LittleEndian.PutUint32(vendor[0:], ebx)
	binary.LittleEndian.PutUint32(vendor[4:], edx)
	binary.LittleEndian.PutUint32(vendor[8:], ecx)
	for _, c := range vendor {
		if c < ' ' || c > '~' {
			t.Fatalf("vendor string %q is not printable ASCII", vendor)
		}
	}
	// An OS that enabled XGETBV saves at least x87 and SSE state.
	if x := XCR0(); x != 0 && x&3 != 3 {
		t.Fatalf("XCR0 %#x lacks x87 or SSE state", x)
	}
	t.Logf("vendor %s, max leaf %d, XCR0 %#x", vendor, maxLeaf, XCR0())
}
