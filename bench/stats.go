package main

import (
	"math"
	"sort"
)

// quartiles returns Q1, median and Q3 of xs by the method Python's
// statistics.quantiles(xs, n=4) uses (exclusive), so spreads computed
// here match the ones computed over the same values elsewhere.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		const n = 4
		m := len(s) + 1
		j := min(max(i*m/n, 1), len(s)-1)
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), median(s), q(3)
}

// median returns the median of xs (the mean of the middle pair for an
// even count).
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest of p90, p99 and p99.9 that has at least ten
// samples beyond it, or ok=false when even p90 has fewer.
func tail(xs []float64) (pct, v float64, ok bool) {
	for _, p := range []float64{99.9, 99, 90} {
		if float64(len(xs))*(1-p/100) >= 10-1e-9 {
			return p, percentile(xs, p), true
		}
	}
	return 0, 0, false
}

// percentile returns the p-th percentile of xs by nearest rank.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	return s[max(int(math.Ceil(p/100*float64(len(s))))-1, 0)]
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0 (a layer the workload never used).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
