//go:build unix

package store

import (
	"fmt"
	"hash/crc32"
	"os"
	"runtime/debug"
	"syscall"
)

// GatherBlocks implements por.BlockGatherer: it fills buf with the
// len(slots) blocks stored at the given block slots — block b of the
// permuted file F‴, at blockfile.Layout.StoredBlockOffset(b) — copying
// them out of read-only shard mappings: no system call per block, and no
// Go heap behind the mappings. blockSize must be the layout's, buf must
// hold exactly the batch, and every slot must be below TotalBlocks; all
// of it is checked before buf is touched, so a bad batch is refused
// whole. Shards are segment-aligned, so a slot in range lies inside its
// shard's mapping.
//
// The call holds every shard's read lock (a permuted chunk group touches
// them all), so WriteAt and Close wait for it; writes that complete
// between two calls are seen by the second, the mappings being shared
// with the page cache the writes land in. A shard cut short underneath
// its mapping — what a hostile or failing filesystem can do to a served
// store — comes back as an error wrapping ErrCorrupt: the memory fault is
// contained to this call instead of killing the process. After Close the
// call fails with os.ErrClosed.
func (s *Store) GatherBlocks(buf []byte, blockSize int, slots []uint64) error {
	if blockSize != s.layout.BlockSize {
		return fmt.Errorf("store: gathering %d-byte blocks from a %d-byte-block layout", blockSize, s.layout.BlockSize)
	}
	if len(buf) != len(slots)*blockSize {
		return fmt.Errorf("store: gather buffer is %d bytes, want %d blocks of %d", len(buf), len(slots), blockSize)
	}
	total := uint64(s.layout.TotalBlocks)
	for _, b := range slots {
		if b >= total {
			return fmt.Errorf("store: gather block slot %d outside the layout's %d", b, total)
		}
	}
	if len(slots) == 0 {
		return nil
	}
	err := s.withMappings("gather", func(maps [][]byte) error {
		g := s.geom
		if blockSize == 16 {
			// The paper's blocks: a [16]byte assignment is one 16-byte
			// load/store pair, where copy calls runtime.memmove per block.
			for j, b := range slots {
				sh, rel := g.shard(b)
				*(*[16]byte)(buf[j*16:]) = *(*[16]byte)(maps[sh][g.offset(rel):])
			}
			return nil
		}
		for j, b := range slots {
			sh, rel := g.shard(b)
			at := g.offset(rel)
			copy(buf[j*blockSize:(j+1)*blockSize], maps[sh][at:at+g.bs])
		}
		return nil
	})
	if err != nil {
		return err
	}
	metricStoreGatherBlocks.Add(uint64(len(slots)))
	metricStoreGatherBytes.Add(uint64(len(buf)))
	return nil
}

// Verify checks every shard against its committed CRC-32C, catching
// silent on-disk damage before the store is served. It checksums the
// shard mappings the gather reads, so no buffer is allocated and no pread
// issued; a shard cut short underneath its mapping is ErrCorrupt.
func (s *Store) Verify() error {
	return s.withMappings("verify", func(maps [][]byte) error {
		for i, m := range maps {
			if err := s.checkShardCRC(i, crc32.Checksum(m, castagnoli)); err != nil {
				return err
			}
		}
		return nil
	})
}

// withMappings runs fn over the shard mappings under every shard's read
// lock, mapping the shards on first use. Reading a mapped page whose file
// no longer backs it raises SIGBUS; for the length of fn the runtime
// panics on this goroutine instead of crashing, and the fault is reported
// as corruption, the goroutine's previous setting restored. After Close
// it returns os.ErrClosed.
func (s *Store) withMappings(op string, fn func(maps [][]byte) error) (err error) {
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
		return fmt.Errorf("store: %s: %w", op, os.ErrClosed)
	}
	s.mapOnce.Do(s.mapShards)
	if s.mapErr != nil {
		return s.mapErr
	}

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
	return fn(s.maps)
}

// mapShards maps every shard read-only and shared, so the mappings are
// the page cache itself: coherent with WriteAt, and never copied into
// the Go heap. It runs once, from the first gather or Verify.
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
