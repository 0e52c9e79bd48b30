//go:build unix

package store

import (
	"errors"
	"fmt"
	"hash/crc32"
	"syscall"
)

// zeroFillBytes is the length of each sequential zero write that fills a
// new shard's page cache before the shard is mapped.
const zeroFillBytes = 1 << 20

// mapShards fills every shard's page cache with zeroFillBytes writes of
// zeros, then maps the shard writable and shared. Stores into pages that
// large writes brought in take about one write fault per large folio;
// into an unfilled file they fault in page by page. The zeros come from
// an anonymous mapping, not the heap.
func (w *Writer) mapShards() error {
	z, err := syscall.Mmap(-1, 0, zeroFillBytes, syscall.PROT_READ, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return fmt.Errorf("store: map zero source: %w", err)
	}
	defer func() { _ = syscall.Munmap(z) }() // read-only: nothing to lose
	w.maps = make([][]byte, len(w.shards))
	for s, f := range w.shards {
		n := w.man.Shards[s].Bytes
		if n == 0 {
			continue // the single shard of an empty payload
		}
		for off := int64(0); off < n; off += zeroFillBytes {
			if _, err := f.WriteAt(z[:min(n-off, zeroFillBytes)], off); err != nil {
				return fmt.Errorf("store: fill shard %d: %w", s, err)
			}
		}
		if w.maps[s], err = syscall.Mmap(int(f.Fd()), 0, int(n), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED); err != nil {
			return fmt.Errorf("store: map shard %d: %w", s, err)
		}
	}
	return nil
}

// unmapShards releases every shard mapping seal has not.
func (w *Writer) unmapShards() error {
	var first error
	for s, m := range w.maps {
		if m != nil {
			if err := syscall.Munmap(m); err != nil && first == nil {
				first = fmt.Errorf("store: unmap shard %d: %w", s, err)
			}
			w.maps[s] = nil
		}
	}
	return first
}

// Images lends the writer's writable shard mappings to fn, once, for an
// encode to place its blocks and stamp its tags in: views[s] is shard s,
// every shard but the last ShardBytes long. It holds the writer's lock
// for the whole loan, refuses a shard already cut short, and runs fn —
// and guard, for every goroutine fn starts — with a memory fault (a
// shard cut short during the loan) reported as ErrCorrupt. Any error,
// fn's included, latches: Commit returns it. The mappings stay the
// writer's; Commit checksums them and unmaps them.
func (w *Writer) Images(fn func(views [][]byte, guard func(func() error) error) error) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if w.lent || w.sealed {
		return errors.New("store: the shard images are lent once, before Commit")
	}
	w.lent = true
	w.err = w.checkShardSizes()
	if w.err == nil {
		w.err = faultsAsCorrupt(func() error { return fn(w.maps, faultsAsCorrupt) })
	}
	return w.err
}

// checkShardSizes refuses a shard file shorter than its manifest length,
// before its mapping is touched.
func (w *Writer) checkShardSizes() error {
	for s, f := range w.shards {
		if st, err := f.Stat(); err != nil {
			return fmt.Errorf("store: stat shard %d: %w", s, err)
		} else if st.Size() < w.man.Shards[s].Bytes {
			return fmt.Errorf("%w: shard %d is %d bytes, want %d", ErrCorrupt, s, st.Size(), w.man.Shards[s].Bytes)
		}
	}
	return nil
}

// seal takes every shard's CRC-32C over its mapping and unmaps it, once;
// a failure, or an earlier one latched by Images, is returned by every
// later call.
func (w *Writer) seal() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil || w.sealed {
		return w.err
	}
	w.sealed = true
	if w.err = w.checkShardSizes(); w.err == nil {
		w.err = faultsAsCorrupt(func() error {
			for s, m := range w.maps {
				w.man.Shards[s].CRC32C = crc32.Checksum(m, castagnoli)
			}
			return nil
		})
	}
	if w.err == nil {
		w.err = w.unmapShards()
	}
	return w.err
}
