package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile for
// the percentile to mean anything: with fewer, a "p99" is just the
// largest sample or two.
const minBeyond = 10

// beyond returns how many of n sorted samples lie above the nearest-rank
// p-quantile.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p*float64(n)))
}

// tailPercentile picks the highest of the candidate percentiles that has
// at least minBeyond samples above it among n samples. ok is false when
// none does.
func tailPercentile(n int, candidates ...float64) (p float64, ok bool) {
	for _, c := range candidates {
		if beyond(n, c) >= minBeyond && (!ok || c > p) {
			p, ok = c, true
		}
	}
	return p, ok
}

// quantile returns the nearest-rank p-quantile of sorted samples.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// latencyPercentile returns the p-quantile of ds in milliseconds, or an
// error when the sample is too small to support it.
func latencyPercentile(name string, ds []time.Duration, p float64) (float64, error) {
	if got, ok := tailPercentile(len(ds), p); !ok || got != p {
		return 0, fmt.Errorf("%s: %d samples leave fewer than %d beyond p%g", name, len(ds), minBeyond, p*100)
	}
	ms := make([]float64, len(ds))
	for i, d := range ds {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(ms)
	return quantile(ms, p), nil
}

// median returns the median of xs (the mean of the middle two for an
// even count), leaving xs unchanged.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first and third quartiles of xs with the same
// "exclusive" interpolation as Python's statistics.quantiles(xs, n=4).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return math.NaN(), math.NaN()
	}
	at := func(i int) float64 {
		// statistics.quantiles, method "exclusive", transcribed.
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}
