package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestPercentileNearestRank(t *testing.T) {
	s := seq(100)
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {99.9, 100}, {100, 100}, {0.5, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(seq(1000), 99.9); got != 999 {
		t.Errorf("percentile(1..1000, 99.9) = %v, want 999 (integral rank must not round up)", got)
	}
	if got := percentile([]float64{7}, 50); got != 7 {
		t.Errorf("single sample: got %v", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("no samples: got %v, want 0", got)
	}
}

// A tail is only quoted with at least ten samples beyond its rank.
func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{100, 90, true},     // rank 90, ten beyond
		{99, 90, false},     // rank 90, nine beyond
		{1000, 99, true},    // rank 990
		{999, 99, false},    // rank 990, nine beyond
		{10000, 99.9, true}, // rank 9990
		{9999, 99.9, false},
		{20, 50, true},
		{19, 50, false},
	} {
		if got := tailSupported(c.n, c.p); got != c.want {
			t.Errorf("tailSupported(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	if got := supportedPercentile(seq(999), 99); got != 0 {
		t.Errorf("unsupported tail reads %v, want 0", got)
	}
	if got := supportedPercentile(seq(1000), 99); got != 990 {
		t.Errorf("supported tail reads %v, want 990", got)
	}
}

// The quartiles must be the ones Python's statistics.quantiles(v, n=4)
// gives, because that is how the acceptance check computes spread.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{seq(10), [3]float64{2.75, 5.5, 8.25}},
		{seq(4), [3]float64{1.25, 2.5, 3.75}},
		{[]float64{20, 10}, [3]float64{7.5, 15, 22.5}},
		{[]float64{3, 1, 2, 5, 4}, [3]float64{1.5, 3, 4.5}},
	} {
		q1, q2, q3 := quartiles(c.in)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
	if got := spread(seq(10)); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestMedianKeepsInputOrder(t *testing.T) {
	in := []float64{9, 1, 5, 3}
	if got := median(in); got != 4 {
		t.Errorf("median = %v, want 4", got)
	}
	if in[0] != 9 || in[3] != 3 {
		t.Errorf("median reordered its input: %v", in)
	}
}
