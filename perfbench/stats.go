package main

import (
	"math"
	"sort"
)

// tailBeyond is how many samples must lie beyond the reported tail
// percentile: the tail is the highest percentile that still has this
// many samples above it, so it never rests on a handful of outliers.
const tailBeyond = 10

// median returns the median of xs (the mean of the two middle values
// for an even count), or 0 for an empty slice. +Inf samples (failed
// operations) sort last like any other value.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	lo, hi := s[n/2-1], s[n/2]
	if math.IsInf(hi, 1) {
		return hi
	}
	return (lo + hi) / 2
}

// tail returns the highest percentile of xs that has at least
// tailBeyond samples beyond it, together with that percentile. With n
// samples that is the (n-tailBeyond)-th smallest value, at percentile
// 100*(n-tailBeyond)/n. With too few samples for any percentile to
// have tailBeyond beyond it, it returns the maximum at percentile 100.
func tail(xs []float64) (value, pct float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := sorted(xs)
	if n <= tailBeyond {
		return s[n-1], 100
	}
	k := n - tailBeyond // rank of the tail sample, 1-based
	return s[k-1], 100 * float64(k) / float64(n)
}

// geomean returns the geometric mean of positive values, or 0 when
// there are none.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
