// Command benchjson converts `go test -bench` output into a stable JSON
// snapshot and gates regressions against a committed baseline. It is the
// measurement half of the allocation-free hot-loop work: the benchmarks
// report simulated uops per second and allocations per simulated uop, and
// this tool turns a run into BENCH_6.json (or compares a fresh run to the
// checked-in one and fails CI when the hot loop regresses).
//
// Usage:
//
//	go test -run '^$' -bench CoreHotLoop -benchmem . | benchjson -out BENCH_6.json
//	go test -run '^$' -bench CoreHotLoop -benchmem . | benchjson -baseline BENCH_6.json
//
// -out refreshes a snapshot in place: when the file already exists, its
// note (unless -note overrides it) and its "before" block are preserved.
//
// With -baseline, the exit status is non-zero when any benchmark present
// in both runs regresses: uops/s below (1 - maxregress) × baseline,
// allocs/uop above baseline × (1 + allocsgrow) + 0.05, allocs/op above
// baseline × (1 + allocsgrow) + 2 for fixed-cost benchmarks (those with
// no uops/s figure). Throughput depends on the machine — refresh the
// committed baseline (-out) when the CI hardware generation changes; the
// allocation gates are hardware-independent.
//
// Serving benchmarks (cmd/loadgen) report req/s and p50-ms / p99-ms
// percentiles in the same line format and gate symmetrically: req/s below
// (1 - maxregress) × baseline fails, and either percentile above
// (1 + maxregress) × baseline + 1 ms fails (the absolute slack keeps
// microsecond-scale 304 baselines from tripping on scheduler noise).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Metrics is one benchmark's parsed figures. Unreported metrics stay zero.
type Metrics struct {
	NsPerOp      float64 `json:"ns_per_op"`
	BytesPerOp   float64 `json:"b_per_op"`
	AllocsPerOp  float64 `json:"allocs_per_op"`
	UopsPerSec   float64 `json:"uops_per_sec,omitempty"`
	AllocsPerUop float64 `json:"allocs_per_uop,omitempty"`
	ReqPerSec    float64 `json:"req_per_sec,omitempty"`
	P50Ms        float64 `json:"p50_ms,omitempty"`
	P99Ms        float64 `json:"p99_ms,omitempty"`
}

// Snapshot is the BENCH_6.json schema. Before optionally preserves the
// numbers recorded before an optimization for the historical record; only
// Benchmarks participates in comparisons.
type Snapshot struct {
	Schema     int                `json:"schema"`
	Note       string             `json:"note,omitempty"`
	Benchmarks map[string]Metrics `json:"benchmarks"`
	Before     map[string]Metrics `json:"before,omitempty"`
}

// benchLine matches one result row: name, iteration count, then
// value/unit pairs.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(.*)$`)

// procsSuffix matches the "-N" GOMAXPROCS decoration go test appends.
var procsSuffix = regexp.MustCompile(`-\d+$`)

// parse reads `go test -bench` output into per-benchmark metrics. The
// GOMAXPROCS suffix ("-8") is stripped so snapshots recorded on machines
// with different core counts compare — but only when every result line
// carries the same suffix (the decoration is uniform within one run), so
// a benchmark legitimately named "gzip-1" on a 1-CPU run is not mangled
// alongside differently-named siblings.
func parse(r *bufio.Scanner) (map[string]Metrics, error) {
	type row struct {
		name string
		met  Metrics
	}
	var rows []row
	for r.Scan() {
		m := benchLine.FindStringSubmatch(r.Text())
		if m == nil {
			continue
		}
		name := strings.TrimPrefix(m[1], "Benchmark")
		fields := strings.Fields(m[3])
		var met Metrics
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchjson: %s: bad value %q", name, fields[i])
			}
			switch fields[i+1] {
			case "ns/op":
				met.NsPerOp = v
			case "B/op":
				met.BytesPerOp = v
			case "allocs/op":
				met.AllocsPerOp = v
			case "uops/s":
				met.UopsPerSec = v
			case "allocs/uop":
				met.AllocsPerUop = v
			case "req/s":
				met.ReqPerSec = v
			case "p50-ms":
				met.P50Ms = v
			case "p99-ms":
				met.P99Ms = v
			}
		}
		rows = append(rows, row{name, met})
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	suffix := ""
	for i, rw := range rows {
		s := procsSuffix.FindString(rw.name)
		if i == 0 {
			suffix = s
		} else if s != suffix {
			suffix = ""
			break
		}
	}
	out := map[string]Metrics{}
	for _, rw := range rows {
		name := rw.name
		if suffix != "" {
			name = strings.TrimSuffix(name, suffix)
		}
		out[name] = rw.met
	}
	return out, nil
}

// compare gates the fresh run against the baseline. Benchmarks missing on
// either side are skipped (renames should not break unrelated lanes), but
// an empty intersection fails: a gate that checks nothing is miswired.
func compare(fresh, base map[string]Metrics, maxRegress, allocsGrow float64) []string {
	var problems []string
	matched := 0
	for _, name := range sortedNames(base) {
		b := base[name]
		f, ok := fresh[name]
		if !ok {
			continue
		}
		matched++
		if b.UopsPerSec > 0 && f.UopsPerSec < b.UopsPerSec*(1-maxRegress) {
			problems = append(problems, fmt.Sprintf(
				"%s: throughput regressed: %.0f uops/s vs baseline %.0f (-%.1f%%, budget %.0f%%)",
				name, f.UopsPerSec, b.UopsPerSec,
				100*(1-f.UopsPerSec/b.UopsPerSec), 100*maxRegress))
		}
		allocBudget := b.AllocsPerUop*(1+allocsGrow) + 0.05
		if f.AllocsPerUop > allocBudget {
			problems = append(problems, fmt.Sprintf(
				"%s: allocations grew: %.3f allocs/uop vs baseline %.3f (budget %.3f)",
				name, f.AllocsPerUop, b.AllocsPerUop, allocBudget))
		}
		if b.UopsPerSec == 0 {
			// Fixed-cost benchmarks (core construction) have no
			// per-uop figures; gate their raw allocation count instead. The
			// +2 absolute slack keeps near-zero baselines (a pooled Reset is
			// a couple of allocations) from failing on noise.
			opBudget := b.AllocsPerOp*(1+allocsGrow) + 2
			if f.AllocsPerOp > opBudget {
				problems = append(problems, fmt.Sprintf(
					"%s: allocations grew: %.1f allocs/op vs baseline %.1f (budget %.1f)",
					name, f.AllocsPerOp, b.AllocsPerOp, opBudget))
			}
		}
		if b.ReqPerSec > 0 && f.ReqPerSec < b.ReqPerSec*(1-maxRegress) {
			problems = append(problems, fmt.Sprintf(
				"%s: throughput regressed: %.0f req/s vs baseline %.0f (-%.1f%%, budget %.0f%%)",
				name, f.ReqPerSec, b.ReqPerSec,
				100*(1-f.ReqPerSec/b.ReqPerSec), 100*maxRegress))
		}
		// Latency gates mirror the throughput one but in the other
		// direction, with 1 ms absolute slack so sub-millisecond baselines
		// (a warm 304 is microseconds) do not fail on scheduler noise.
		if b.P50Ms > 0 && f.P50Ms > b.P50Ms*(1+maxRegress)+1.0 {
			problems = append(problems, fmt.Sprintf(
				"%s: p50 latency regressed: %.2f ms vs baseline %.2f (budget %.2f)",
				name, f.P50Ms, b.P50Ms, b.P50Ms*(1+maxRegress)+1.0))
		}
		if b.P99Ms > 0 && f.P99Ms > b.P99Ms*(1+maxRegress)+1.0 {
			problems = append(problems, fmt.Sprintf(
				"%s: p99 latency regressed: %.2f ms vs baseline %.2f (budget %.2f)",
				name, f.P99Ms, b.P99Ms, b.P99Ms*(1+maxRegress)+1.0))
		}
	}
	if matched == 0 {
		problems = append(problems, "no benchmark in the fresh run matches the baseline — gate is checking nothing")
	}
	return problems
}

// sortedNames returns the map's keys in stable order, so comparison
// output and failure lists are deterministic across runs.
func sortedNames(m map[string]Metrics) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// writeSnapshot writes (or refreshes) a snapshot file. Refreshing an
// existing snapshot must not destroy its history: the note (unless the
// new one overrides it) and the before block carry forward.
func writeSnapshot(path, note string, fresh map[string]Metrics) error {
	snap := Snapshot{Schema: 1, Note: note, Benchmarks: fresh}
	if blob, err := os.ReadFile(path); err == nil {
		var old Snapshot
		if err := json.Unmarshal(blob, &old); err == nil {
			if snap.Note == "" {
				snap.Note = old.Note
			}
			snap.Before = old.Before
		}
	}
	blob, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

func main() {
	var (
		out        = flag.String("out", "", "write the parsed snapshot as JSON to this file")
		baseline   = flag.String("baseline", "", "compare the run against this committed snapshot; non-zero exit on regression")
		maxRegress = flag.Float64("max-regress", 0.20, "with -baseline: maximum tolerated uops/s drop (fraction)")
		allocsGrow = flag.Float64("allocs-grow", 0.25, "with -baseline: maximum tolerated allocs/uop growth (fraction, plus 0.05 absolute slack)")
		note       = flag.String("note", "", "with -out: note field recorded in the snapshot")
	)
	flag.Parse()

	fresh, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if len(fresh) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(2)
	}

	if *out != "" {
		if err := writeSnapshot(*out, *note, fresh); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	if *baseline != "" {
		blob, err := os.ReadFile(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		var snap Snapshot
		if err := json.Unmarshal(blob, &snap); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: parsing %s: %v\n", *baseline, err)
			os.Exit(2)
		}
		problems := compare(fresh, snap.Benchmarks, *maxRegress, *allocsGrow)
		for _, name := range sortedNames(fresh) {
			f := fresh[name]
			b, ok := snap.Benchmarks[name]
			if !ok {
				continue
			}
			switch {
			case b.ReqPerSec > 0:
				fmt.Printf("%s: %.0f req/s (baseline %.0f, %+.1f%%), p50 %.2f ms (baseline %.2f), p99 %.2f ms (baseline %.2f)\n",
					name, f.ReqPerSec, b.ReqPerSec, 100*(f.ReqPerSec/b.ReqPerSec-1),
					f.P50Ms, b.P50Ms, f.P99Ms, b.P99Ms)
			case b.UopsPerSec > 0:
				fmt.Printf("%s: %.0f uops/s (baseline %.0f, %+.1f%%), %.3f allocs/uop (baseline %.3f)\n",
					name, f.UopsPerSec, b.UopsPerSec, 100*(f.UopsPerSec/b.UopsPerSec-1),
					f.AllocsPerUop, b.AllocsPerUop)
			default:
				fmt.Printf("%s: %.1f allocs/op (baseline %.1f), %.0f ns/op (baseline %.0f)\n",
					name, f.AllocsPerOp, b.AllocsPerOp, f.NsPerOp, b.NsPerOp)
			}
		}
		if len(problems) > 0 {
			for _, p := range problems {
				fmt.Fprintln(os.Stderr, "FAIL:", p)
			}
			os.Exit(1)
		}
		fmt.Println("benchjson: within budget")
	}
}
