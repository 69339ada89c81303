package main

import (
	"math"
	"sort"
)

// sortedCopy returns values in ascending order without touching the input.
func sortedCopy(values []float64) []float64 {
	out := append([]float64(nil), values...)
	sort.Float64s(out)
	return out
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending slice: the smallest sample with at least p% of the samples at
// or below it. An empty slice reads 0.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[percentileRank(len(sorted), p)-1]
}

// percentileRank is the 1-based nearest rank of the p-th percentile among
// n samples.
func percentileRank(n int, p float64) int {
	// The small epsilon keeps ranks exact when p*n/100 is integral but its
	// float product lands a hair above (99.9% of 1000 is rank 999).
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return rank
}

// tailSupported reports whether at least ten samples lie beyond the p-th
// percentile's rank, the rule the metric guide sets for quoting a tail.
func tailSupported(n int, p float64) bool {
	return n-percentileRank(n, p) >= 10
}

// supportedPercentile is percentile, or 0 when fewer than ten samples lie
// beyond the rank.
func supportedPercentile(sorted []float64, p float64) float64 {
	if !tailSupported(len(sorted), p) {
		return 0
	}
	return percentile(sorted, p)
}

// median is the mean of the two middle samples for an even count.
func median(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	s := sortedCopy(values)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// quartiles returns the cut points Python's statistics.quantiles(values,
// n=4) gives (the default "exclusive" method), so a spread computed here
// matches the one the acceptance check computes. Fewer than two samples
// read as that sample three times.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := sortedCopy(values)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	cut := func(i int) float64 {
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}
