package main

import (
	"bufio"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: clustersim
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkCoreHotLoop/OP-8         	     165	   7140881 ns/op	   0.352 allocs/uop	   1394810 uops/s	  732355 B/op	    3524 allocs/op
BenchmarkCoreHotLoop/VC-8         	     154	   7769799 ns/op	   0.357 allocs/uop	   1287036 uops/s	  750798 B/op	    3572 allocs/op
PASS
ok  	clustersim	7.816s
`

func parseSample(t *testing.T, s string) map[string]Metrics {
	t.Helper()
	m, err := parse(bufio.NewScanner(strings.NewReader(s)))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestParseBenchOutput(t *testing.T) {
	m := parseSample(t, sample)
	if len(m) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2: %+v", len(m), m)
	}
	op, ok := m["CoreHotLoop/OP"]
	if !ok {
		t.Fatalf("missing CoreHotLoop/OP (GOMAXPROCS suffix not stripped?): %+v", m)
	}
	if op.NsPerOp != 7140881 || op.UopsPerSec != 1394810 || op.AllocsPerOp != 3524 {
		t.Errorf("bad metrics: %+v", op)
	}
	if op.AllocsPerUop != 0.352 {
		t.Errorf("allocs/uop = %v", op.AllocsPerUop)
	}
}

func TestParsePreservesDigitNamesWithoutProcsSuffix(t *testing.T) {
	// A 1-CPU run has no "-8" decoration; a benchmark legitimately named
	// "gzip-1" must survive. Suffixes are stripped only when uniform
	// across the whole run.
	out := `BenchmarkTrace/gzip-1 	 100	 50 ns/op
BenchmarkCoreHotLoop/OP 	 100	 60 ns/op
`
	m := parseSample(t, out)
	if _, ok := m["Trace/gzip-1"]; !ok {
		t.Errorf("benchmark name mangled on suffix-less run: %+v", m)
	}
	if _, ok := m["CoreHotLoop/OP"]; !ok {
		t.Errorf("plain name lost: %+v", m)
	}

	// Uniform decoration still strips.
	out8 := `BenchmarkTrace/gzip-1-8 	 100	 50 ns/op
BenchmarkCoreHotLoop/OP-8 	 100	 60 ns/op
`
	m = parseSample(t, out8)
	if _, ok := m["Trace/gzip-1"]; !ok {
		t.Errorf("uniform -8 suffix not stripped: %+v", m)
	}
}

func TestCompareGates(t *testing.T) {
	base := parseSample(t, sample)

	// Identical run: clean.
	if p := compare(base, base, 0.20, 0.25); len(p) != 0 {
		t.Errorf("self-comparison flagged: %v", p)
	}

	// 30% throughput drop against a 20% budget: flagged.
	slow := parseSample(t, sample)
	m := slow["CoreHotLoop/OP"]
	m.UopsPerSec *= 0.7
	slow["CoreHotLoop/OP"] = m
	if p := compare(slow, base, 0.20, 0.25); len(p) != 1 || !strings.Contains(p[0], "throughput") {
		t.Errorf("want one throughput failure, got %v", p)
	}

	// Allocation growth beyond budget: flagged.
	leaky := parseSample(t, sample)
	m = leaky["CoreHotLoop/VC"]
	m.AllocsPerUop = 2.5
	leaky["CoreHotLoop/VC"] = m
	if p := compare(leaky, base, 0.20, 0.25); len(p) != 1 || !strings.Contains(p[0], "allocations") {
		t.Errorf("want one allocation failure, got %v", p)
	}

	// Disjoint benchmark sets: the gate must refuse to pass vacuously.
	if p := compare(map[string]Metrics{"Other": {}}, base, 0.20, 0.25); len(p) != 1 {
		t.Errorf("want a no-match failure, got %v", p)
	}
}

const fixedCostSample = `BenchmarkCoreConstruction/Fresh-8  	    1588	  171575 ns/op	 1209562 B/op	      70 allocs/op
BenchmarkCoreConstruction/Pooled-8 	    8218	   29234 ns/op	     128 B/op	       3 allocs/op
`

func TestCompareGatesFixedCostBenchmarks(t *testing.T) {
	base := parseSample(t, fixedCostSample)
	if got := base["CoreConstruction/Pooled"].AllocsPerOp; got != 3 {
		t.Fatalf("allocs/op not parsed: %v", got)
	}

	if p := compare(base, base, 0.20, 0.25); len(p) != 0 {
		t.Errorf("self-comparison flagged: %v", p)
	}

	// A pooled Reset that starts allocating per-iteration (pooling broken)
	// must trip the allocs/op gate despite the +2 absolute slack.
	leaky := parseSample(t, fixedCostSample)
	m := leaky["CoreConstruction/Pooled"]
	m.AllocsPerOp = 70
	leaky["CoreConstruction/Pooled"] = m
	if p := compare(leaky, base, 0.20, 0.25); len(p) != 1 || !strings.Contains(p[0], "allocs/op") {
		t.Errorf("want one allocs/op failure, got %v", p)
	}

	// Fresh construction growing 9% in memory with an unchanged allocation
	// count (a structure that grew) must trip the B/op gate.
	grown := parseSample(t, fixedCostSample)
	m = grown["CoreConstruction/Fresh"]
	m.BytesPerOp *= 1.09
	grown["CoreConstruction/Fresh"] = m
	if p := compare(grown, base, 0.20, 0.25); len(p) != 1 || !strings.Contains(p[0], "B/op") {
		t.Errorf("want one B/op failure, got %v", p)
	}
}

const servingSample = `BenchmarkServingWarmFetch-64     	   12000	   82000 ns/op	   12100 req/s	   4.10 p50-ms	  11.30 p99-ms
BenchmarkServingWarmFetchETag-64 	   48000	   20000 ns/op	   49000 req/s	   0.90 p50-ms	   3.10 p99-ms
BenchmarkServingSSEFanout-64     	     600	 1600000 ns/op	     610 req/s	  90.00 p50-ms	 210.00 p99-ms
`

func TestParseServingMetrics(t *testing.T) {
	m := parseSample(t, servingSample)
	f, ok := m["ServingWarmFetch"]
	if !ok {
		t.Fatalf("missing ServingWarmFetch: %+v", m)
	}
	if f.ReqPerSec != 12100 || f.P50Ms != 4.10 || f.P99Ms != 11.30 {
		t.Errorf("serving metrics = %+v", f)
	}
}

func TestCompareGatesServingBenchmarks(t *testing.T) {
	base := parseSample(t, servingSample)

	if p := compare(base, base, 0.20, 0.25); len(p) != 0 {
		t.Errorf("self-comparison flagged: %v", p)
	}

	// 30% req/s drop against a 20% budget: flagged.
	slow := parseSample(t, servingSample)
	m := slow["ServingWarmFetch"]
	m.ReqPerSec *= 0.7
	slow["ServingWarmFetch"] = m
	if p := compare(slow, base, 0.20, 0.25); len(p) != 1 || !strings.Contains(p[0], "req/s") {
		t.Errorf("want one req/s failure, got %v", p)
	}

	// p99 blown past budget: flagged.
	spiky := parseSample(t, servingSample)
	m = spiky["ServingSSEFanout"]
	m.P99Ms = 400
	spiky["ServingSSEFanout"] = m
	if p := compare(spiky, base, 0.20, 0.25); len(p) != 1 || !strings.Contains(p[0], "p99") {
		t.Errorf("want one p99 failure, got %v", p)
	}

	// Sub-millisecond baselines ride the 1 ms absolute slack: a 0.90 ms
	// p50 drifting to 1.8 ms is noise, not a regression.
	drift := parseSample(t, servingSample)
	m = drift["ServingWarmFetchETag"]
	m.P50Ms = 1.8
	drift["ServingWarmFetchETag"] = m
	if p := compare(drift, base, 0.20, 0.25); len(p) != 0 {
		t.Errorf("sub-ms drift within slack flagged: %v", p)
	}

	// But a real latency explosion on the same benchmark still trips.
	m.P50Ms = 6.0
	drift["ServingWarmFetchETag"] = m
	if p := compare(drift, base, 0.20, 0.25); len(p) != 1 || !strings.Contains(p[0], "p50") {
		t.Errorf("want one p50 failure, got %v", p)
	}
}

func TestOutRefreshPreservesHistory(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/snap.json"
	old := Snapshot{
		Schema:     1,
		Note:       "keep me",
		Benchmarks: map[string]Metrics{"CoreHotLoop/OP": {UopsPerSec: 1}},
		Before:     map[string]Metrics{"CoreHotLoop/OP": {UopsPerSec: 0.5}},
	}
	blob, err := json.Marshal(old)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	if err := writeSnapshot(path, "", parseSample(t, sample)); err != nil {
		t.Fatal(err)
	}
	written, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(written, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Note != "keep me" {
		t.Errorf("note lost on refresh: %q", snap.Note)
	}
	if snap.Before["CoreHotLoop/OP"].UopsPerSec != 0.5 {
		t.Errorf("before block lost on refresh: %+v", snap.Before)
	}
	if snap.Benchmarks["CoreHotLoop/OP"].UopsPerSec == 1 {
		t.Error("benchmarks not refreshed")
	}
}

// A name repeated by -count N records the median of each metric, not
// whichever run came last.
func TestParseRepeatedNameKeepsMedian(t *testing.T) {
	out := `BenchmarkCoreHotLoop/OP-8 	 100	 6000000 ns/op	 0.30 allocs/uop	 2760000 uops/s
BenchmarkCoreHotLoop/OP-8 	 100	 5000000 ns/op	 0.40 allocs/uop	 2100000 uops/s
BenchmarkCoreHotLoop/OP-8 	 100	 7000000 ns/op	 0.35 allocs/uop	 1940000 uops/s
BenchmarkCoreHotLoop/VC-8 	 100	 4000000 ns/op
BenchmarkCoreHotLoop/VC-8 	 100	 5000000 ns/op
`
	m := parseSample(t, out)
	if len(m) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2: %+v", len(m), m)
	}
	op := m["CoreHotLoop/OP"]
	if op.NsPerOp != 6000000 || op.UopsPerSec != 2100000 || op.AllocsPerUop != 0.35 {
		t.Errorf("CoreHotLoop/OP = %+v, want the per-metric medians 6000000 ns/op, 2100000 uops/s, 0.35 allocs/uop", op)
	}
	if vc := m["CoreHotLoop/VC"]; vc.NsPerOp != 4500000 {
		t.Errorf("CoreHotLoop/VC ns/op = %v, want the mean of the middle two, 4500000", vc.NsPerOp)
	}
}
