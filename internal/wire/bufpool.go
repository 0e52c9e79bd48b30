package wire

import "sync"

// poolBufCap is the largest buffer the frame pool retains. GeoProof
// frames are tiny (segment + tag ≈ 100 bytes; batch requests a few KiB),
// so anything larger is an outlier not worth pinning in the pool.
const poolBufCap = 64 << 10

// bufPool recycles frame payload and scratch buffers across the
// transport hot paths: reading a frame, and encoding one for a single
// write. One pool of poolBufCap-capacity buffers covers every frame class
// the protocol produces. It holds array pointers, not slices: a pointer
// goes into the pool's interface value as is, where a slice would need
// its header boxed on the heap by every Put.
var bufPool = sync.Pool{
	New: func() any { return new([poolBufCap]byte) },
}

// GetBuffer returns a buffer of length n, drawn from the frame pool when
// n fits the pooled capacity and freshly allocated otherwise. Contents
// are undefined; hand it back with PutBuffer.
func GetBuffer(n int) []byte {
	if n > poolBufCap {
		return make([]byte, n)
	}
	return bufPool.Get().(*[poolBufCap]byte)[:n]
}

// PutBuffer returns a GetBuffer buffer to the pool. Oversized or
// reallocated buffers are dropped so the pool's footprint stays bounded.
func PutBuffer(b []byte) {
	if cap(b) != poolBufCap {
		return
	}
	bufPool.Put((*[poolBufCap]byte)(b[:poolBufCap]))
}
