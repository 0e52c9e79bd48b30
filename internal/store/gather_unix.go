//go:build unix

package store

import (
	"fmt"
	"hash/crc32"
	"os"
	"runtime/debug"
	"syscall"
)

// Images lends the store's read-only shard mappings to fn, for an
// extraction to verify the tags and gather the blocks in place: views[s]
// is shard s, every shard but the last ShardBytes long — the page cache
// itself, so no system call per block and nothing added to the Go heap.
// The shards are mapped on first use and unmapped by Close.
//
// The loan holds every shard's read lock (a permuted chunk group touches
// them all), so WriteAt and Close wait for it, and no address fn takes
// into a view outlives Close's munmap; writes that complete between two
// loans are seen by the second, the mappings being shared with the page
// cache the writes land in. fn, and guard for every goroutine fn starts,
// run with a memory fault — a shard cut short underneath its mapping,
// what a hostile or failing filesystem can do to a served store —
// reported as an error wrapping ErrCorrupt, instead of killing the
// process. After Close the loan fails with os.ErrClosed.
func (s *Store) Images(fn func(views [][]byte, guard func(func() error) error) error) error {
	for i := range s.locks {
		s.locks[i].RLock()
	}
	defer func() {
		for i := range s.locks {
			s.locks[i].RUnlock()
		}
	}()
	// closed and the mappings only change under every write lock (Close)
	// or inside mapOnce, so the read locks make them stable.
	if s.closed {
		return fmt.Errorf("store: %w", os.ErrClosed)
	}
	s.mapOnce.Do(s.mapShards)
	if s.mapErr != nil {
		return s.mapErr
	}
	return faultsAsCorrupt(func() error { return fn(s.maps, faultsAsCorrupt) })
}

// Verify checks every shard against its committed CRC-32C, catching
// silent on-disk damage before the store is served. It checksums the
// shard mappings an extraction reads, so no buffer is allocated and no
// pread issued; a shard cut short underneath its mapping is ErrCorrupt.
func (s *Store) Verify() error {
	return s.Images(func(maps [][]byte, _ func(func() error) error) error {
		for i, m := range maps {
			if err := s.checkShardCRC(i, crc32.Checksum(m, castagnoli)); err != nil {
				return err
			}
		}
		return nil
	})
}

// faultsAsCorrupt runs fn, reporting a memory fault on this goroutine as
// an error wrapping ErrCorrupt instead of crashing the process. Touching
// a mapped page whose file no longer backs it raises SIGBUS; for the
// length of fn the runtime panics on this goroutine instead, and the
// goroutine's previous setting is restored.
func faultsAsCorrupt(fn func() error) (err error) {
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
	return fn()
}

// mapShards maps every shard read-only and shared, so the mappings are
// the page cache itself: coherent with WriteAt, and never copied into
// the Go heap. It runs once, from the first loan.
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
			continue // the single shard of an empty payload: nothing to read
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
