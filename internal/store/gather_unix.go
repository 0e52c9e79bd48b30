//go:build unix

package store

import (
	"fmt"
	"os"
	"runtime/debug"
	"syscall"
)

// GatherBlocks implements por.BlockGatherer: it fills buf with the
// len(offs) blocks of blockSize bytes stored at the given offsets of the
// encoded payload, copying them out of read-only shard mappings — no
// system call per block, and no Go heap behind the mappings. Every offset
// is checked before any memory is touched: a block must lie inside the
// payload and inside one shard (stored blocks always do, shards being
// segment-aligned).
//
// The read locks of the shards the batch touches are held for the whole
// call, so WriteAt on those shards and Close wait for it; writes that
// complete between two calls are seen by the second, the mappings being
// shared with the page cache the writes land in. A shard cut short
// underneath its mapping — what a hostile or failing filesystem can do to
// a served store — comes back as an error wrapping ErrCorrupt: the memory
// fault is contained to this call instead of killing the process. After
// Close the call fails with os.ErrClosed.
func (s *Store) GatherBlocks(buf []byte, blockSize int, offs []int64) (err error) {
	if blockSize <= 0 || len(buf) != len(offs)*blockSize {
		return fmt.Errorf("store: gather buffer is %d bytes, want %d blocks of %d", len(buf), len(offs), blockSize)
	}
	if len(offs) == 0 {
		return nil
	}
	bs, shardBytes := int64(blockSize), s.man.ShardBytes
	touched := make([]bool, len(s.locks))
	for _, off := range offs {
		if off < 0 || off > s.man.EncodedBytes-bs {
			return fmt.Errorf("store: gather block at %d outside encoded size %d", off, s.man.EncodedBytes)
		}
		sh := off / shardBytes
		if off-sh*shardBytes+bs > s.man.Shards[sh].Bytes {
			return fmt.Errorf("store: gather block at %d crosses the end of shard %d", off, sh)
		}
		touched[sh] = true
	}
	for sh, t := range touched {
		if t {
			s.locks[sh].RLock()
		}
	}
	defer func() {
		for sh, t := range touched {
			if t {
				s.locks[sh].RUnlock()
			}
		}
	}()
	// closed and the mappings only change under every write lock (Close)
	// or inside mapOnce, so holding one read lock makes them stable.
	if s.closed {
		return fmt.Errorf("store: gather: %w", os.ErrClosed)
	}
	s.mapOnce.Do(s.mapShards)
	if s.mapErr != nil {
		return s.mapErr
	}

	// Reading a mapped page whose file no longer backs it raises SIGBUS;
	// for the length of the copy, have the runtime panic on this
	// goroutine instead of crashing, and report the fault as corruption.
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		fault, ok := r.(interface{ Addr() uintptr })
		if !ok {
			panic(r)
		}
		err = fmt.Errorf("%w: shard no longer backs its mapping (fault at %#x)", ErrCorrupt, fault.Addr())
	}()
	for j, off := range offs {
		sh := off / shardBytes
		rel := off - sh*shardBytes
		copy(buf[j*blockSize:(j+1)*blockSize], s.maps[sh][rel:rel+bs])
	}
	metricStoreGatherBlocks.Add(uint64(len(offs)))
	metricStoreGatherBytes.Add(uint64(len(buf)))
	return nil
}

// mapShards maps every shard read-only and shared, so the mappings are
// the page cache itself: coherent with WriteAt, and never copied into
// the Go heap. It runs once, from the first gather.
func (s *Store) mapShards() {
	maps := make([][]byte, len(s.shards))
	unmap := func() error {
		var first error
		for i, m := range maps {
			if m == nil {
				continue
			}
			if err := syscall.Munmap(m); err != nil && first == nil {
				first = fmt.Errorf("store: unmap shard %d: %w", i, err)
			}
			maps[i] = nil
		}
		return first
	}
	for i, f := range s.shards {
		n := s.man.Shards[i].Bytes
		if n == 0 {
			continue // the single shard of an empty payload: nothing to gather
		}
		m, err := syscall.Mmap(int(f.Fd()), 0, int(n), syscall.PROT_READ, syscall.MAP_SHARED)
		if err != nil {
			_ = unmap() // the mmap failure is the error worth reporting
			s.mapErr = fmt.Errorf("store: map shard %d: %w", i, err)
			return
		}
		maps[i] = m
	}
	s.maps, s.unmap = maps, unmap
}
