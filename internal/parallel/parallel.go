package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Resolve maps a user-facing concurrency knob to an effective worker
// count: n when positive, runtime.NumCPU() otherwise.
func Resolve(n int) int {
	if n > 0 {
		return n
	}
	return runtime.NumCPU()
}

// For runs fn(i) for every i in [0, n) using up to workers goroutines and
// returns the error of the lowest index that failed (matching what a
// sequential loop that stops at the first error would report). Workers
// pull indices from a shared atomic counter, so uneven per-index cost
// balances automatically. workers ≤ 1 (or n ≤ 1) runs inline.
func For(workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next     atomic.Int64
		mu       sync.Mutex
		firstIdx = n
		firstErr error
		wg       sync.WaitGroup
	)
	record := func(i int, err error) {
		mu.Lock()
		if i < firstIdx {
			firstIdx, firstErr = i, err
		}
		mu.Unlock()
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					record(i, err)
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// ForRange splits [0, n) into at most workers contiguous shards of
// near-equal size and runs fn(lo, hi) for each. It suits bulk byte-slice
// work (keystream application, block moves) where per-shard setup cost
// should be amortised over a long run of items. Error selection matches
// For: the failing shard with the lowest lo wins.
func ForRange(workers, n int, fn func(lo, hi int) error) error {
	if n <= 0 {
		return nil
	}
	workers = Resolve(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		return fn(0, n)
	}
	shard := n / workers
	rem := n % workers
	bounds := make([]int, 0, workers+1)
	lo := 0
	for w := 0; w < workers; w++ {
		hi := lo + shard
		if w < rem {
			hi++
		}
		bounds = append(bounds, lo)
		lo = hi
	}
	bounds = append(bounds, n)
	return For(workers, workers, func(w int) error {
		return fn(bounds[w], bounds[w+1])
	})
}

// Pipeline runs a bounded producer/consumer stage: produce runs on the
// calling goroutine and hands items to emit; up to workers goroutines run
// consume on the emitted items, with at most depth items queued between
// the two sides. Resident state is therefore bounded by
// workers + depth + 1 in-flight items no matter how many are produced —
// the property the streaming POR pipeline uses to hold O(workers ×
// chunkSize) memory while I/O overlaps compute.
//
// workers ≤ 1 degenerates to the exact sequential loop on the calling
// goroutine: emit invokes consume inline, so ordering and error behaviour
// match a plain loop — the same "Concurrency 1 = sequential semantics"
// guarantee the rest of this package makes.
//
// Error selection is deterministic: the error of the earliest-emitted
// item whose consume failed wins; if no consume failed, the producer's
// error is returned. After any failure emit returns that error, so the
// producer can stop early; remaining queued items are drained without
// being consumed.
func Pipeline[T any](workers, depth int, produce func(emit func(T) error) error, consume func(T) error) error {
	if depth < 0 {
		depth = 0
	}
	if workers <= 1 {
		var firstErr error
		emit := func(item T) error {
			if firstErr != nil {
				return firstErr
			}
			if err := consume(item); err != nil {
				firstErr = err
			}
			return firstErr
		}
		if err := produce(emit); err != nil && firstErr == nil {
			firstErr = err
		}
		return firstErr
	}

	type seqItem struct {
		seq  int64
		item T
	}
	var (
		ch       = make(chan seqItem, depth)
		mu       sync.Mutex
		firstSeq = int64(-1)
		firstErr error
		failed   atomic.Bool
		wg       sync.WaitGroup
	)
	record := func(seq int64, err error) {
		mu.Lock()
		if firstSeq == -1 || seq < firstSeq {
			firstSeq, firstErr = seq, err
		}
		mu.Unlock()
		failed.Store(true)
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for it := range ch {
				if failed.Load() {
					continue // drain without consuming so the producer never blocks
				}
				if err := consume(it.item); err != nil {
					record(it.seq, err)
				}
			}
		}()
	}
	var seq int64
	emit := func(item T) error {
		if failed.Load() {
			mu.Lock()
			err := firstErr
			mu.Unlock()
			return err
		}
		ch <- seqItem{seq: seq, item: item}
		seq++
		return nil
	}
	perr := produce(emit)
	close(ch)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return perr
}
