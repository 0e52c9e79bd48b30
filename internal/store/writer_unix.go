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
// zeros, then maps the shard writable and shared, and allocates the
// placement bitmap. Stores into pages that large writes brought in take
// about one write fault per large folio; into an unfilled file they fault
// in page by page. The zeros come from an anonymous mapping, not the heap.
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
	w.seen = make([]uint64, (w.layout.TotalBlocks+63)/64)
	return nil
}

// unmapShards releases every shard mapping the flush has not.
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

// PlaceBlocks stores len(slots) blocks of blockSize bytes from buf at
// their block slots: slot b is block b of the permuted file F‴, stored at
// blockfile.Layout.StoredBlockOffset(b). The slots may be scattered
// anywhere; each block goes straight into its shard's mapping through
// blockfile.SlotGeom.Place, one 16-byte store for the paper's blocks.
// Every slot is checked against the layout before anything is stored. A
// slot placed twice, or a shard cut short underneath its mapping, is
// ErrCorrupt after part of the batch is stored, so the writer latches
// failed: FlushPlacements and Commit return the same error. Safe for
// concurrent use by the encode's workers.
func (w *Writer) PlaceBlocks(buf []byte, blockSize int, slots []uint64) error {
	if blockSize != w.layout.BlockSize {
		return fmt.Errorf("store: placing %d-byte blocks into a %d-byte-block layout", blockSize, w.layout.BlockSize)
	}
	if len(buf) != len(slots)*blockSize {
		return fmt.Errorf("store: %d bytes for %d placements", len(buf), len(slots))
	}
	total := uint64(w.layout.TotalBlocks)
	for _, b := range slots {
		if b >= total {
			return fmt.Errorf("store: block slot %d outside the layout's %d", b, total)
		}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.flushed {
		if w.flushErr != nil {
			return w.flushErr
		}
		return errors.New("store: PlaceBlocks after FlushPlacements")
	}
	err := faultsAsCorrupt(func() error {
		if j := w.geom.Place(w.maps, buf, slots, w.seen); j >= 0 {
			return fmt.Errorf("%w: block slot %d placed twice", ErrCorrupt, slots[j])
		}
		return nil
	})
	if err != nil {
		w.flushed, w.flushErr = true, err
		return err
	}
	w.placed += int64(len(slots))
	metricStorePlacedBlocks.Add(uint64(len(slots)))
	return nil
}

// FlushPlacements seals the shards. It checks that every block slot of
// the layout was placed: PlaceBlocks refused every slot outside the
// layout or placed twice, so a count equal to TotalBlocks pins the
// bijection, and a duplicate-plus-missing pair cannot commit a
// zero-filled block. (A writer with nothing placed was filled through
// WriteAt, by a caller that hid the placer; its shards are only
// checksummed.) Then, in ascending shard order, finish (when not nil) is
// called once on the shard's mapping — every block at its slot, tag
// bytes zero, at byte offset off of the encoded file, both ends segment
// boundaries — to stamp the tags in place; the mapping's CRC-32C is
// taken and the shard unmapped. A shard already cut short is refused
// before finish sees it. finish runs on the flushing goroutine under
// guard, which reports a memory fault — a shard cut short after that
// check — as ErrCorrupt and puts the goroutine's fault setting back; any
// goroutine finish starts must run its work through guard too. The first
// call decides: every later call returns its error, finish's included.
func (w *Writer) FlushPlacements(finish func(img []byte, off int64, guard func(func() error) error) error) error {
	w.mu.Lock()
	decided, err, placed := w.flushed, w.flushErr, w.placed
	w.flushed = true
	w.mu.Unlock()
	if decided {
		return err // a failed flush stays failed: Commit must not publish
	}
	err = w.flushPlacements(placed, finish)
	w.mu.Lock()
	w.flushErr = err
	w.mu.Unlock()
	return err
}

func (w *Writer) flushPlacements(placed int64, finish func(img []byte, off int64, guard func(func() error) error) error) error {
	if want := w.layout.TotalBlocks; placed != want && placed != 0 {
		return fmt.Errorf("store: %d blocks placed, layout has %d", placed, want)
	}
	for s, m := range w.maps {
		if st, err := w.shards[s].Stat(); err != nil {
			return fmt.Errorf("store: stat shard %d: %w", s, err)
		} else if st.Size() < w.man.Shards[s].Bytes {
			return fmt.Errorf("%w: shard %d is %d bytes, want %d", ErrCorrupt, s, st.Size(), w.man.Shards[s].Bytes)
		}
		err := faultsAsCorrupt(func() error {
			if finish != nil {
				if err := finish(m, int64(s)*w.man.ShardBytes, faultsAsCorrupt); err != nil {
					return fmt.Errorf("store: finish shard %d: %w", s, err)
				}
			}
			w.man.Shards[s].CRC32C = crc32.Checksum(m, castagnoli)
			return nil
		})
		if err != nil {
			return err
		}
		if m != nil {
			if err := syscall.Munmap(m); err != nil {
				return fmt.Errorf("store: unmap shard %d: %w", s, err)
			}
			w.maps[s] = nil
		}
	}
	return nil
}

// seal completes the encode's writes before Commit: the flush.
func (w *Writer) seal() error { return w.FlushPlacements(nil) }
