package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile reads the p-quantile (0..1) of ascending samples with linear
// interpolation between neighbours; 0 for an empty sample.
func quantile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	pos := p * float64(len(asc)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return asc[lo] + (asc[hi]-asc[lo])*(pos-float64(lo))
}

// median is the 0.5-quantile of unsorted samples.
func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// mean is the arithmetic mean; 0 for an empty sample.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (the default "exclusive" method), so
// the spread -repeat prints is the one the pipeline computes. It needs at
// least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	asc := sorted(xs)
	n := len(asc)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (asc[j-1]*float64(4-delta) + asc[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// tailPercentile picks the highest of p99, p95, p90 and p75 that still has at
// least ten samples beyond it, the rule for printing a tail at all; ok is
// false when even p75 does not qualify.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range []float64{0.99, 0.95, 0.90, 0.75} {
		if float64(n)*(1-p) >= 10 {
			return p, true
		}
	}
	return 0, false
}
