package main

import (
	"math"
	"slices"
)

// median is the middle value of xs (the mean of the middle pair for an even
// count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile (0 < p ≤ 100) of xs; 0 for
// no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

// tailPercentile applies the tail-reporting rule: report the highest
// percentile that still has at least minBeyond samples beyond it, so the
// figure rests on more than a handful of outliers. With n samples sorted
// ascending that is the sample at index n-1-minBeyond; level is its
// percentile rank and beyond the number of samples after it. ok is false
// when there are not more than minBeyond samples.
func tailPercentile(xs []float64, minBeyond int) (v, level float64, beyond int, ok bool) {
	n := len(xs)
	if n <= minBeyond {
		return 0, 0, 0, false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := n - 1 - minBeyond
	return s[i], 100 * float64(i+1) / float64(n), n - 1 - i, true
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// sameBits reports whether two vectors are bitwise identical.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
