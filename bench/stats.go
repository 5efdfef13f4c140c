package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between order statistics, 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailLadder are the percentiles a timing may be reported at, ascending,
// in tenths of a percent (exact integer arithmetic below).
var tailLadder = []int{500, 750, 900, 950, 990, 999}

// tailPercentile returns the highest percentile of tailLadder that still
// has at least ten of n samples beyond it; ok is false when even the
// median has fewer (n < 20), in which case only the median and the sample
// count are reported.
func tailPercentile(n int) (p float64, ok bool) {
	for _, c := range tailLadder {
		if n*(1000-c) >= 10*1000 {
			p, ok = float64(c)/10, true
		}
	}
	return p, ok
}

// spread is the distance between the first and third quartile of xs as a
// share of their median — the run-to-run spread the compare verdicts and
// the benchmark's steadiness target are stated in. Quartiles follow
// Python's statistics.quantiles(xs, n=4) (the exclusive method), so the
// figure matches what the acceptance driver computes. Fewer than two
// values have no spread (0).
func spread(xs []float64) float64 {
	n := len(xs)
	med := median(xs)
	if n < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 { // k-th quartile, exclusive method
		pos := float64(k*(n+1))/4 - 1 // zero-based position
		lo := int(math.Floor(pos))
		switch {
		case lo < 0:
			return s[0]
		case lo >= n-1:
			return s[n-1]
		}
		return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
	}
	return math.Abs(at(3)-at(1)) / math.Abs(med)
}

func inSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
