// Package stats provides the small statistical toolkit the experiment
// harness needs: summary statistics, least-squares fits, correlation and
// exact binomial tails (used for the paper's POR irretrievability bound).
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by aggregations over empty inputs.
var ErrEmpty = errors.New("stats: empty input")

// Mean returns the arithmetic mean.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs)), nil
}

// Max returns the maximum value.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// Min returns the minimum value.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) using linear
// interpolation between order statistics.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 100 {
		return 0, errors.New("stats: percentile out of [0,100]")
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], nil
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo], nil
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac, nil
}

// LinearFit fits y = a + b·x by ordinary least squares and returns the
// intercept a, slope b and the coefficient of determination R².
func LinearFit(xs, ys []float64) (a, b, r2 float64, err error) {
	if len(xs) == 0 || len(xs) != len(ys) {
		return 0, 0, 0, errors.New("stats: need equal non-empty x and y")
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy, syy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
		syy += ys[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, 0, 0, errors.New("stats: degenerate x values")
	}
	b = (n*sxy - sx*sy) / den
	a = (sy - b*sx) / n
	ssTot := syy - sy*sy/n
	if ssTot == 0 {
		return a, b, 1, nil
	}
	var ssRes float64
	for i := range xs {
		d := ys[i] - (a + b*xs[i])
		ssRes += d * d
	}
	return a, b, 1 - ssRes/ssTot, nil
}

// Pearson returns the Pearson correlation coefficient of xs and ys.
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) < 2 || len(xs) != len(ys) {
		return 0, errors.New("stats: need >=2 paired samples")
	}
	mx, _ := Mean(xs)
	my, _ := Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, errors.New("stats: zero variance")
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// logChoose returns ln C(n, k) via log-gamma, stable for large n.
func logChoose(n, k int) float64 {
	lg := func(x int) float64 {
		v, _ := math.Lgamma(float64(x + 1))
		return v
	}
	return lg(n) - lg(k) - lg(n-k)
}

// BinomPMF returns P(X = k) for X ~ Bin(n, p).
func BinomPMF(n, k int, p float64) float64 {
	if k < 0 || k > n || p < 0 || p > 1 {
		return 0
	}
	if p == 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	if p == 1 {
		if k == n {
			return 1
		}
		return 0
	}
	lp := logChoose(n, k) + float64(k)*math.Log(p) + float64(n-k)*math.Log(1-p)
	return math.Exp(lp)
}

// BinomTail returns P(X ≥ k) for X ~ Bin(n, p) by direct summation of the
// PMF (n ≤ a few thousand in our uses, so this is exact enough and fast).
func BinomTail(n, k int, p float64) float64 {
	if k <= 0 {
		return 1
	}
	if k > n {
		return 0
	}
	var s float64
	for i := k; i <= n; i++ {
		s += BinomPMF(n, i, p)
	}
	if s > 1 {
		s = 1
	}
	return s
}

// DetectionProbability returns 1-(1-f)^k: the chance that at least one of
// k independently sampled segments hits the corrupted fraction f. This is
// the POR per-challenge detection probability the paper quotes (§V-C:
// f=0.125%, k=1000 → ≈71.3%).
func DetectionProbability(corruptFraction float64, k int) float64 {
	if corruptFraction <= 0 || k <= 0 {
		return 0
	}
	if corruptFraction >= 1 {
		return 1
	}
	return 1 - math.Pow(1-corruptFraction, float64(k))
}
