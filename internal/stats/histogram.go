package stats

import (
	"fmt"
	"math"
	"strings"
)

// Histogram is a fixed-bucket histogram for integer-valued samples
// (issue-queue occupancies, chain lengths, copy latencies…).
type Histogram struct {
	// buckets[i] counts samples equal to i for i < len(buckets)-1; the
	// last bucket counts overflow.
	buckets []uint64
	count   uint64
	sum     int64
	min     int64
	max     int64
}

// NewHistogram builds a histogram for samples in [0, limit); larger
// samples land in the overflow bucket.
func NewHistogram(limit int) *Histogram {
	if limit <= 0 {
		panic(fmt.Sprintf("stats: histogram limit %d", limit))
	}
	return &Histogram{buckets: make([]uint64, limit+1), min: math.MaxInt64, max: math.MinInt64}
}

// Observe records one sample. Negative samples clamp to bucket 0.
func (h *Histogram) Observe(v int64) { h.ObserveN(v, 1) }

// ObserveN records n samples of the same value, exactly as n calls to
// Observe would.
func (h *Histogram) ObserveN(v int64, n uint64) {
	if n == 0 {
		return
	}
	idx := v
	if idx < 0 {
		idx = 0
	}
	if idx >= int64(len(h.buckets)-1) {
		idx = int64(len(h.buckets) - 1)
	}
	h.buckets[idx] += n
	h.count += n
	h.sum += v * int64(n)
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the total samples.
func (h *Histogram) Count() uint64 { return h.count }

// Mean returns the sample mean, NaN when empty.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return math.NaN()
	}
	return float64(h.sum) / float64(h.count)
}

// Min and Max return the extremes (zero values when empty).
func (h *Histogram) Min() int64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observed sample.
func (h *Histogram) Max() int64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Percentile returns the smallest bucket index at which the cumulative
// count reaches p (0..1) of all samples; overflow reports len(buckets)-1.
func (h *Histogram) Percentile(p float64) int {
	if h.count == 0 {
		return 0
	}
	target := uint64(math.Ceil(p * float64(h.count)))
	if target == 0 {
		target = 1
	}
	var acc uint64
	for i, c := range h.buckets {
		acc += c
		if acc >= target {
			return i
		}
	}
	return len(h.buckets) - 1
}

// Render draws a compact ASCII bar chart: buckets are coalesced into at
// most 24 groups so wide distributions stay readable.
func (h *Histogram) Render(label string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: n=%d mean=%.2f min=%d max=%d p50=%d p95=%d\n",
		label, h.count, h.Mean(), h.Min(), h.Max(), h.Percentile(0.5), h.Percentile(0.95))
	if h.count == 0 {
		return b.String()
	}
	// Find the last non-empty bucket to bound the rendered range.
	last := 0
	for i, c := range h.buckets {
		if c > 0 {
			last = i
		}
	}
	const maxGroups = 24
	groupSize := (last + maxGroups) / maxGroups
	if groupSize < 1 {
		groupSize = 1
	}
	type group struct {
		lo, hi int
		count  uint64
	}
	var groups []group
	var peak uint64
	for lo := 0; lo <= last; lo += groupSize {
		hi := lo + groupSize - 1
		if hi > last {
			hi = last
		}
		var c uint64
		for i := lo; i <= hi && i < len(h.buckets); i++ {
			c += h.buckets[i]
		}
		if c > peak {
			peak = c
		}
		groups = append(groups, group{lo, hi, c})
	}
	for _, g := range groups {
		if g.count == 0 {
			continue
		}
		bar := int(float64(g.count) / float64(peak) * 40)
		name := fmt.Sprintf("%4d", g.lo)
		if g.hi != g.lo {
			name = fmt.Sprintf("%4d-%-4d", g.lo, g.hi)
		}
		if g.hi == len(h.buckets)-1 {
			name += "+"
		}
		fmt.Fprintf(&b, "  %-10s |%s %d\n", name, strings.Repeat("#", bar), g.count)
	}
	return b.String()
}
