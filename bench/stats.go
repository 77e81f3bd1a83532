package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), as Python's statistics.median does. It
// returns 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first, second and third quartile of xs with the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), so a
// spread computed here matches one computed from the same values in
// Python. A single value is its own quartiles; an empty slice gives 0s.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

// iqrShare is the distance between the first and third quartile of xs as
// a share of their median: the run-to-run spread of one metric.
func iqrShare(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}

// percentile returns the nearest-rank p-th percentile of xs (0 < p <=
// 100): the smallest sample with at least p% of the samples at or below
// it. It returns 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sorted(xs)[rank(p, len(xs))-1]
}

// rank is the 1-based nearest rank of the p-th percentile of n samples.
// The product is rounded first so that, say, 99.9% of 10000 is 9990 and
// not 9991 from a binary rounding error.
func rank(p float64, n int) int {
	r := int(math.Ceil(math.Round(p*float64(n)*1e6) / 1e8))
	return max(r, 1)
}

// tailPercentile picks the highest of p99.9, p99 and p90 that still has
// at least ten samples above its rank, so a reported tail is never a
// handful of outliers. ok is false when even p90 has fewer than ten.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range []float64{99.9, 99, 90} {
		if n-rank(p, n) >= 10 {
			return p, true
		}
	}
	return 0, false
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
