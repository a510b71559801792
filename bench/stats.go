package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs (0 < q < 1) by the exclusive method
// Python's statistics.quantiles uses by default: rank q*(n+1), interpolated
// linearly between the samples around it. Ranks outside the samples are
// clamped to the extremes where Python would extrapolate, which for
// quartiles only happens below three samples. It returns NaN for no
// samples. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := min(max(q*float64(n+1), 1), float64(n))
	j := int(h) // 1-based rank of the sample at or below h
	if j == n {
		return s[n-1]
	}
	return s[j-1] + (h-float64(j))*(s[j]-s[j-1])
}

// median is quantile 0.5; it equals Python's statistics.median.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first and third quartiles, as Python's
// statistics.quantiles(xs, n=4) gives them.
func quartiles(xs []float64) (q1, q3 float64) {
	return quantile(xs, 0.25), quantile(xs, 0.75)
}

// tailPercents are the candidate tail percentiles, highest first.
var tailPercents = []int{99, 95, 90, 80, 70}

// tailPercent returns the highest candidate percentile, at most limit, that
// still has at least ten of n samples beyond it. Below 34 samples no
// percentile above the median qualifies, and the median (50) is returned.
func tailPercent(n, limit int) int {
	for _, p := range tailPercents {
		if p <= limit && n*(100-p) >= 10*100 {
			return p
		}
	}
	return 50
}

// tail returns the tailPercent(len(xs), limit) percentile of xs and that
// percentile.
func tail(xs []float64, limit int) (float64, int) {
	p := tailPercent(len(xs), limit)
	return quantile(xs, float64(p)/100), p
}
