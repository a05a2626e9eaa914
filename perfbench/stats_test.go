package main

import (
	"math"
	"testing"
	"time"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{n: 1000, want: 0.99, ok: true}, // exactly 10 beyond p99
		{n: 999, want: 0.9, ok: true},   // 9 beyond p99: fall back to p90
		{n: 100, want: 0.9, ok: true},
		{n: 99, want: 0.5, ok: true},
		{n: 19, want: 0, ok: false},
	} {
		got, ok := tailPercentile(tc.n, 0.5, 0.9, 0.99)
		if ok != tc.ok || got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func TestLatencyPercentileRefusesThinTails(t *testing.T) {
	ds := make([]time.Duration, 999)
	for i := range ds {
		ds[i] = time.Duration(i+1) * time.Millisecond
	}
	if _, err := latencyPercentile("hit_p99_ms", ds, 0.99); err == nil {
		t.Fatal("p99 of 999 samples accepted; only 9 lie beyond it")
	}
	ds = append(ds, 1000*time.Millisecond)
	got, err := latencyPercentile("hit_p99_ms", ds, 0.99)
	if err != nil || got != 990 {
		t.Fatalf("p99 of 1..1000 ms = %v, %v; want 990", got, err)
	}
	if got, _ := latencyPercentile("hit_p50_ms", ds, 0.5); got != 500 {
		t.Fatalf("p50 of 1..1000 ms = %v; want 500", got)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(xs, n=4) for these inputs.
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{5, 9}, 4, 10},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}
