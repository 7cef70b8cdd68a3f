// Package stats provides the small numeric helpers the experiment
// harness uses to summarize ratios: extrema and the geometric mean (the
// paper reports most comparisons as "higher by a factor of X to Y").
package stats

import "math"

// Min returns the smallest value of xs. It panics on an empty slice.
func Min(xs []float64) float64 {
	mustNonEmpty(xs)
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest value of xs. It panics on an empty slice.
func Max(xs []float64) float64 {
	mustNonEmpty(xs)
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// GeoMean returns the geometric mean of positive values. It panics on an
// empty slice and returns NaN if any value is non-positive.
func GeoMean(xs []float64) float64 {
	mustNonEmpty(xs)
	s := 0.0
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func mustNonEmpty(xs []float64) {
	if len(xs) == 0 {
		panic("stats: empty input")
	}
}
