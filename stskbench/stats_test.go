package main

import (
	"math/rand/v2"
	"testing"
)

func TestTailPercentileRule(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		rand.New(rand.NewPCG(1, 2)).Shuffle(n, func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		return xs
	}
	for _, tc := range []struct {
		name     string
		xs       []float64
		v, level float64
		beyond   int
		ok       bool
	}{
		{name: "100 samples give p90", xs: ramp(100), v: 90, level: 90, beyond: 10, ok: true},
		{name: "1000 samples give p99", xs: ramp(1000), v: 990, level: 99, beyond: 10, ok: true},
		{name: "11 samples give the minimum", xs: ramp(11), v: 1, level: 100.0 / 11, beyond: 10, ok: true},
		{name: "10 samples give nothing", xs: ramp(10), ok: false},
		{name: "ties count by position", xs: []float64{5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5}, v: 5, level: 200.0 / 12, beyond: 10, ok: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v, level, beyond, ok := tailPercentile(tc.xs, 10)
			if ok != tc.ok || v != tc.v || beyond != tc.beyond || !near(level, tc.level) {
				t.Fatalf("tailPercentile = (%v, %v, %d, %v), want (%v, %v, %d, %v)",
					v, level, beyond, ok, tc.v, tc.level, tc.beyond, tc.ok)
			}
		})
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of odd count = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of even count = %v, want 2.5", got)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if median(nil) != 0 || percentile(nil, 50) != 0 {
		t.Error("empty samples should read 0")
	}
}

func near(a, b float64) bool { return a-b < 1e-9 && b-a < 1e-9 }
