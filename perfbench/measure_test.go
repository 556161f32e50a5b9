package main

import (
	"math"
	"slices"
	"testing"
)

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		beyond int
		ok     bool
	}{
		{1100, 11, true},
		{1000, 10, true},
		{999, 9, false},
		{100, 1, false},
	} {
		v, beyond, err := tailPercentile(ramp(tc.n), 0.99)
		if beyond != tc.beyond || (err == nil) != tc.ok {
			t.Errorf("n=%d: value %v, %d beyond, err %v; want %d beyond, ok=%v", tc.n, v, beyond, err, tc.beyond, tc.ok)
		}
		if tc.ok && v != float64(tc.n-tc.beyond) {
			t.Errorf("n=%d: p99 = %v, want %v", tc.n, v, tc.n-tc.beyond)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	if v, _ := percentile(ramp(10), 0.5); v != 5 {
		t.Errorf("p50 of 1..10 = %v, want 5", v)
	}
	if v, beyond := percentile(ramp(10), 1); v != 10 || beyond != 0 {
		t.Errorf("p100 of 1..10 = %v with %d beyond", v, beyond)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %v, want 2", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestSamplesBounded(t *testing.T) {
	a, b := newSamples(rng(1, 1), maxSamples), newSamples(rng(1, 2), maxSamples)
	for i := 3 * maxSamples; i > 0; i-- {
		a.add(float64(i))
	}
	b.add(math.Inf(1))
	a.merge(&b)
	s := a.sorted()
	if a.n != 3*maxSamples+1 || len(s) != maxSamples+1 || !math.IsInf(s[len(s)-1], 1) {
		t.Fatalf("%d offered, %d kept, last %v", a.n, len(s), s[len(s)-1])
	}
	// The kept sample is uniform: its median sits near the middle.
	if m := s[len(s)/2]; math.Abs(m-1.5*maxSamples) > 0.02*maxSamples {
		t.Errorf("median of kept sample %v, want about %v", m, 1.5*maxSamples)
	}
}

func TestQuartiles(t *testing.T) {
	xs := []float64{50, 100, 90, 110, 60} // sorted: 50 60 90 100 110
	if got := lowerQuartile(xs); got != 60 {
		t.Errorf("lower quartile %v, want 60", got)
	}
	if got := upperQuartile(xs); got != 100 {
		t.Errorf("upper quartile %v, want 100", got)
	}
	if got := lowerQuartile([]float64{1, 2, 3, 4}); got != 1.75 {
		t.Errorf("lower quartile of 1..4 = %v, want 1.75 (interpolated)", got)
	}
	if got := lowerQuartile([]float64{7}); got != 7 {
		t.Errorf("lower quartile of one value %v, want 7", got)
	}
	if !slices.Equal(xs, []float64{50, 100, 90, 110, 60}) {
		t.Errorf("input modified: %v", xs)
	}
}
