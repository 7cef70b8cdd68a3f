package main

import (
	"sort"
	"time"
)

// quantile returns the q-quantile of xs, interpolating linearly between
// the two closest ranks of the sorted raw samples. It sorts xs in place
// and returns 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// windowedQuantile splits xs, in arrival order, into consecutive
// windows of size samples (a short tail joins the last window), takes
// the q-quantile of each, and returns their median. A stall that hits
// one window then moves one of several values, not the whole figure.
// xs is not modified.
func windowedQuantile(xs []float64, size int, q float64) float64 {
	n := len(xs) / size
	if n < 2 {
		return quantile(append([]float64(nil), xs...), q)
	}
	qs := make([]float64, n)
	for i := range qs {
		end := (i + 1) * size
		if i == n-1 {
			end = len(xs)
		}
		qs[i] = quantile(append([]float64(nil), xs[i*size:end]...), q)
	}
	return median(qs)
}

// median is the 0.5-quantile of xs (sorting xs in place).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean returns the arithmetic mean of xs, 0 when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ms, us and secs convert a duration to float milliseconds,
// microseconds and seconds.
func ms(d time.Duration) float64   { return float64(d) / 1e6 }
func us(d time.Duration) float64   { return float64(d) / 1e3 }
func secs(d time.Duration) float64 { return d.Seconds() }
