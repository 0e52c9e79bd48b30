package stats

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanMaxMin(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5}
	if m, _ := Mean(xs); !almost(m, 2.8, 1e-12) {
		t.Errorf("Mean=%v", m)
	}
	if m, _ := Max(xs); m != 5 {
		t.Errorf("Max=%v", m)
	}
	if m, _ := Min(xs); m != 1 {
		t.Errorf("Min=%v", m)
	}
	for _, f := range []func([]float64) (float64, error){Mean, Max, Min} {
		if _, err := f(nil); !errors.Is(err, ErrEmpty) {
			t.Error("empty input did not error")
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6},
	}
	for _, c := range cases {
		got, err := Percentile(xs, c.p)
		if err != nil {
			t.Fatal(err)
		}
		if !almost(got, c.want, 1e-9) {
			t.Errorf("P%v=%v, want %v", c.p, got, c.want)
		}
	}
	if _, err := Percentile(xs, 101); err == nil {
		t.Error("percentile >100 accepted")
	}
	if _, err := Percentile(nil, 50); !errors.Is(err, ErrEmpty) {
		t.Error("empty percentile did not error")
	}
	if got, _ := Percentile([]float64{7}, 50); got != 7 {
		t.Error("single-sample percentile wrong")
	}
}

func TestLinearFitExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7} // y = 1 + 2x
	a, b, r2, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(a, 1, 1e-9) || !almost(b, 2, 1e-9) || !almost(r2, 1, 1e-9) {
		t.Fatalf("fit a=%v b=%v r2=%v", a, b, r2)
	}
}

func TestLinearFitDegenerate(t *testing.T) {
	if _, _, _, err := LinearFit([]float64{1, 1}, []float64{2, 3}); err == nil {
		t.Error("constant x accepted")
	}
	if _, _, _, err := LinearFit(nil, nil); err == nil {
		t.Error("empty fit accepted")
	}
	if _, _, _, err := LinearFit([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	// Constant y: perfect fit by convention.
	_, b, r2, err := LinearFit([]float64{1, 2, 3}, []float64{4, 4, 4})
	if err != nil || !almost(b, 0, 1e-12) || r2 != 1 {
		t.Errorf("constant-y fit b=%v r2=%v err=%v", b, r2, err)
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	r, err := Pearson(xs, ys)
	if err != nil || !almost(r, 1, 1e-12) {
		t.Fatalf("perfect correlation r=%v err=%v", r, err)
	}
	inv := []float64{10, 8, 6, 4, 2}
	r, _ = Pearson(xs, inv)
	if !almost(r, -1, 1e-12) {
		t.Fatalf("anti-correlation r=%v", r)
	}
	if _, err := Pearson([]float64{1}, []float64{1}); err == nil {
		t.Error("single sample accepted")
	}
	if _, err := Pearson([]float64{1, 1}, []float64{2, 3}); err == nil {
		t.Error("zero-variance input accepted")
	}
}

func TestBinomPMFSumsToOne(t *testing.T) {
	n, p := 255, 0.005
	var s float64
	for k := 0; k <= n; k++ {
		s += BinomPMF(n, k, p)
	}
	if !almost(s, 1, 1e-9) {
		t.Fatalf("PMF sums to %v", s)
	}
}

func TestBinomPMFEdges(t *testing.T) {
	if BinomPMF(10, -1, 0.5) != 0 || BinomPMF(10, 11, 0.5) != 0 {
		t.Error("out-of-range k should be 0")
	}
	if BinomPMF(10, 0, 0) != 1 || BinomPMF(10, 10, 1) != 1 {
		t.Error("degenerate p edges wrong")
	}
	if BinomPMF(10, 3, 0) != 0 || BinomPMF(10, 3, 1) != 0 {
		t.Error("impossible outcomes should be 0")
	}
}

func TestBinomTail(t *testing.T) {
	if BinomTail(10, 0, 0.3) != 1 {
		t.Error("P(X>=0) must be 1")
	}
	if BinomTail(10, 11, 0.3) != 0 {
		t.Error("P(X>n) must be 0")
	}
	// Fair coin: P(X>=6 of 10) ≈ 0.3770.
	if got := BinomTail(10, 6, 0.5); !almost(got, 0.376953125, 1e-9) {
		t.Fatalf("BinomTail(10,6,0.5)=%v", got)
	}
}

func TestBinomTailMonotonicInK(t *testing.T) {
	prev := 1.0
	for k := 0; k <= 255; k += 16 {
		cur := BinomTail(255, k, 0.005)
		if cur > prev+1e-12 {
			t.Fatalf("tail not monotone at k=%d", k)
		}
		prev = cur
	}
}

func TestDetectionProbabilityPaperNumber(t *testing.T) {
	// §V-C: 1,000 queried segments, 0.125% corrupted → ≈71.3%.
	got := DetectionProbability(0.00125, 1000)
	if !almost(got, 0.713, 0.002) {
		t.Fatalf("detection probability %.4f, want ≈0.713", got)
	}
}

func TestDetectionProbabilityEdges(t *testing.T) {
	if DetectionProbability(0, 100) != 0 || DetectionProbability(0.5, 0) != 0 {
		t.Error("degenerate inputs should be 0")
	}
	if DetectionProbability(1, 5) != 1 || DetectionProbability(2, 5) != 1 {
		t.Error("certain corruption should be 1")
	}
}

func TestDetectionProbabilityMonotoneProperty(t *testing.T) {
	f := func(fRaw uint16, k1Raw, k2Raw uint8) bool {
		f1 := float64(fRaw%1000) / 1000
		k1 := int(k1Raw)
		k2 := k1 + int(k2Raw)
		return DetectionProbability(f1, k2) >= DetectionProbability(f1, k1)-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
