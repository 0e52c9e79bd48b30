package gf256

import (
	"syscall"
	"testing"
)

// TestReduceColumns16StaysInBuffer runs the kernel over buffers that end
// where an inaccessible page begins, at every width: a masked tail group
// must read only its own columns, so no load may touch the guard page.
func TestReduceColumns16StaysInBuffer(t *testing.T) {
	if !kernelRuns(t) {
		return
	}
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	defer syscall.Munmap(mem)
	if err := syscall.Mprotect(mem[page:], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	div := randSlab(7, 33)
	div[0] = 1
	r := NewReducer(div)
	for stride := 1; stride <= 40; stride++ {
		const steps = 9
		src := mem[page-steps*stride : page]
		copy(src, randSlab(int64(stride), len(src)))
		for col := 0; col < stride; col++ {
			var rem [32][16]byte
			r.ReduceColumns16(&rem, src, stride, col, min(16, stride-col), steps)
		}
		checkColumns16(t, div, src, stride, steps)
	}
}
