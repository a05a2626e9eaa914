package stats

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(10)
	for _, v := range []int64{1, 2, 2, 3, 3, 3} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Errorf("Count = %d", h.Count())
	}
	if got := h.Mean(); math.Abs(got-14.0/6) > 1e-9 {
		t.Errorf("Mean = %g", got)
	}
	if h.Min() != 1 || h.Max() != 3 {
		t.Errorf("Min/Max = %d/%d", h.Min(), h.Max())
	}
	if got := h.Percentile(0.5); got != 2 {
		t.Errorf("p50 = %d, want 2", got)
	}
	if got := h.Percentile(1.0); got != 3 {
		t.Errorf("p100 = %d, want 3", got)
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	h := NewHistogram(4)
	h.Observe(100)
	h.Observe(-5)
	if h.Count() != 2 {
		t.Errorf("Count = %d", h.Count())
	}
	if h.Max() != 100 || h.Min() != -5 {
		t.Errorf("Min/Max = %d/%d", h.Min(), h.Max())
	}
	if got := h.Percentile(1.0); got != 4 {
		t.Errorf("overflow percentile = %d, want 4 (overflow bucket)", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(4)
	if !math.IsNaN(h.Mean()) {
		t.Error("empty Mean should be NaN")
	}
	if h.Percentile(0.5) != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Error("empty extremes should be zero")
	}
}

func TestHistogramRender(t *testing.T) {
	h := NewHistogram(8)
	for i := int64(0); i < 20; i++ {
		h.Observe(i % 4)
	}
	out := h.Render("occupancy")
	if !strings.Contains(out, "occupancy") || !strings.Contains(out, "#") {
		t.Errorf("render:\n%s", out)
	}
	empty := NewHistogram(4).Render("empty")
	if !strings.Contains(empty, "n=0") {
		t.Errorf("empty render:\n%s", empty)
	}
}

// Property: percentiles are monotone in p and bounded by the bucket range.
func TestHistogramPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		h := NewHistogram(16)
		for _, v := range raw {
			h.Observe(int64(v % 20))
		}
		if len(raw) == 0 {
			return true
		}
		prev := -1
		for _, p := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 1.0} {
			q := h.Percentile(p)
			if q < prev || q > 16 {
				return false
			}
			prev = q
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: count equals observations; mean within [min,max].
func TestHistogramMomentsProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHistogram(32)
		for _, v := range raw {
			h.Observe(int64(v))
		}
		if h.Count() != uint64(len(raw)) {
			return false
		}
		m := h.Mean()
		return m >= float64(h.Min())-1e-9 && m <= float64(h.Max())+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestHistogramObserveNMatchesRepeatedObserve pins ObserveN(v, n) to n
// calls of Observe(v) — buckets, count, sum and extremes — including the
// clamped ends and n = 0.
func TestHistogramObserveNMatchesRepeatedObserve(t *testing.T) {
	samples := []struct {
		v int64
		n uint64
	}{{3, 5}, {0, 1}, {-2, 3}, {9, 0}, {12, 7}, {3, 2}, {7, 1000}}
	bulk, single := NewHistogram(8), NewHistogram(8)
	for _, s := range samples {
		bulk.ObserveN(s.v, s.n)
		for i := uint64(0); i < s.n; i++ {
			single.Observe(s.v)
		}
	}
	if !reflect.DeepEqual(bulk, single) {
		t.Fatalf("ObserveN diverged from repeated Observe:\n%+v\n%+v", bulk, single)
	}
	// n = 0 on an empty histogram must leave it empty (extremes untouched).
	empty := NewHistogram(4)
	empty.ObserveN(2, 0)
	if !reflect.DeepEqual(empty, NewHistogram(4)) {
		t.Errorf("ObserveN(v, 0) changed an empty histogram: %+v", empty)
	}
}
