package main

import (
	"math"
	"math/bits"
	"sort"
	"time"

	"repro/internal/stats"
)

// hist is a log-linear histogram of durations in nanoseconds: 64 linear
// sub-buckets per power of two, so a bucket is at most 1.6 % wide. It
// replaces per-sample slices on the audit workloads, where a run records
// ~700k round RTTs: a fixed 18 KiB array keeps the recorder out of the
// heap the run is measuring.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
}

const (
	histSubBits = 6
	histSub     = 1 << histSubBits
	histBuckets = (40 - histSubBits + 2) * histSub // up to 2^41 ns ≈ 37 min
)

func histIndex(v uint64) int {
	if v < histSub {
		return int(v)
	}
	exp := bits.Len64(v) - 1
	idx := (exp-histSubBits+1)*histSub + int((v>>(exp-histSubBits))&(histSub-1))
	if idx >= histBuckets {
		return histBuckets - 1
	}
	return idx
}

// histBounds returns the bucket's inclusive lower bound and its width.
func histBounds(idx int) (lo, width float64) {
	if idx < histSub {
		return float64(idx), 1
	}
	shift := idx/histSub - 1
	return float64(uint64(histSub+idx%histSub) << shift), float64(uint64(1) << shift)
}

func (h *hist) add(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[histIndex(uint64(d))]++
	h.n++
}

// quantile returns the q-quantile in nanoseconds, interpolated linearly
// inside the bucket that holds the target rank.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, width := histBounds(i)
			return lo + width*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	lo, width := histBounds(histBuckets - 1)
	return lo + width
}

func median(v []float64) float64 { return percentile(v, 0.5) }

// percentile is stats.Percentile on a 0–1 scale; an empty sample reads 0.
func percentile(v []float64, q float64) float64 {
	p, _ := stats.Percentile(v, 100*q) // the only error is the empty sample
	return p
}

// quartiles reproduces Python's statistics.quantiles(v, n=4) (the
// default "exclusive" method), which is what the acceptance procedure
// for this benchmark uses to judge run-to-run spread.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile range as a share of the median.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
