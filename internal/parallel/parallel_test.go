package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestResolve(t *testing.T) {
	if got := Resolve(0); got != runtime.NumCPU() {
		t.Fatalf("Resolve(0) = %d, want NumCPU %d", got, runtime.NumCPU())
	}
	if got := Resolve(-3); got != runtime.NumCPU() {
		t.Fatalf("Resolve(-3) = %d, want NumCPU %d", got, runtime.NumCPU())
	}
	if got := Resolve(7); got != 7 {
		t.Fatalf("Resolve(7) = %d", got)
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 100} {
		const n = 1000
		hits := make([]atomic.Int32, n)
		err := For(workers, n, func(i int) error {
			hits[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, got)
			}
		}
	}
}

func TestForEmptyAndSingle(t *testing.T) {
	if err := For(4, 0, func(int) error { return errors.New("never") }); err != nil {
		t.Fatalf("n=0: %v", err)
	}
	calls := 0
	if err := For(4, 1, func(i int) error { calls++; return nil }); err != nil || calls != 1 {
		t.Fatalf("n=1: calls=%d err=%v", calls, err)
	}
}

func TestForReturnsLowestIndexError(t *testing.T) {
	wantErr := errors.New("boom-3")
	for _, workers := range []int{1, 4, 16} {
		err := For(workers, 64, func(i int) error {
			if i == 3 {
				return wantErr
			}
			if i > 10 && i%7 == 0 {
				return fmt.Errorf("boom-%d", i)
			}
			return nil
		})
		if !errors.Is(err, wantErr) {
			t.Fatalf("workers=%d: got %v, want boom-3", workers, err)
		}
	}
}

func TestForRangeCoversExactly(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 5, 64} {
		for _, n := range []int{0, 1, 2, 7, 100, 101} {
			covered := make([]atomic.Int32, n)
			err := ForRange(workers, n, func(lo, hi int) error {
				if lo >= hi {
					return fmt.Errorf("empty shard [%d,%d)", lo, hi)
				}
				for i := lo; i < hi; i++ {
					covered[i].Add(1)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("workers=%d n=%d: %v", workers, n, err)
			}
			for i := range covered {
				if got := covered[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: index %d covered %d times", workers, n, i, got)
				}
			}
		}
	}
}

func TestForRangeError(t *testing.T) {
	wantErr := errors.New("shard failed")
	err := ForRange(4, 100, func(lo, hi int) error {
		if lo == 0 {
			return wantErr
		}
		return nil
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("got %v", err)
	}
}

func TestPipelineDeliversEveryItemOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		const n = 500
		var mu sync.Mutex
		seen := make(map[int]int, n)
		err := Pipeline(workers, 4,
			func(emit func(int) error) error {
				for i := 0; i < n; i++ {
					if err := emit(i); err != nil {
						return err
					}
				}
				return nil
			},
			func(i int) error {
				mu.Lock()
				seen[i]++
				mu.Unlock()
				return nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(seen) != n {
			t.Fatalf("workers=%d: consumed %d distinct items, want %d", workers, len(seen), n)
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("workers=%d: item %d consumed %d times", workers, i, c)
			}
		}
	}
}

func TestPipelineSequentialIsInline(t *testing.T) {
	// workers <= 1 must interleave produce and consume on one goroutine in
	// emission order.
	var order []string
	err := Pipeline(1, 8,
		func(emit func(int) error) error {
			for i := 0; i < 3; i++ {
				order = append(order, fmt.Sprintf("p%d", i))
				if err := emit(i); err != nil {
					return err
				}
			}
			return nil
		},
		func(i int) error {
			order = append(order, fmt.Sprintf("c%d", i))
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	want := "p0 c0 p1 c1 p2 c2"
	if got := strings.Join(order, " "); got != want {
		t.Fatalf("order %q, want %q", got, want)
	}
}

func TestPipelineReturnsEarliestConsumerError(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	for _, workers := range []int{1, 4} {
		err := Pipeline(workers, 2,
			func(emit func(int) error) error {
				for i := 0; i < 100; i++ {
					if err := emit(i); err != nil {
						return err
					}
				}
				return nil
			},
			func(i int) error {
				switch i {
				case 7:
					return errA
				case 50:
					time.Sleep(time.Millisecond)
					return errB
				}
				return nil
			})
		if !errors.Is(err, errA) {
			t.Fatalf("workers=%d: got %v, want earliest-emitted error %v", workers, err, errA)
		}
	}
}

func TestPipelineStopsProducerAfterError(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		produced := 0
		err := Pipeline(workers, 1,
			func(emit func(int) error) error {
				for i := 0; i < 1_000_000; i++ {
					produced++
					if err := emit(i); err != nil {
						return err
					}
				}
				return nil
			},
			func(i int) error {
				if i == 3 {
					return boom
				}
				return nil
			})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: got %v", workers, err)
		}
		if produced == 1_000_000 {
			t.Fatalf("workers=%d: producer ran to completion despite consumer failure", workers)
		}
	}
}

func TestPipelineProducerError(t *testing.T) {
	boom := errors.New("producer boom")
	err := Pipeline(4, 2,
		func(emit func(int) error) error {
			for i := 0; i < 10; i++ {
				if err := emit(i); err != nil {
					return err
				}
			}
			return boom
		},
		func(int) error { return nil })
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want producer error", err)
	}
}
