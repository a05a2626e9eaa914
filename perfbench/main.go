// Command perfbench is the repository's end-to-end benchmark: it
// regenerates the paper's evaluation and serves interactive jobs on
// three deployments, times both from outside, checks every output, and
// splits the time across the system's layers in a separate traced run.
//
// Run it from the repository root (perfbench/run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload figs-cold --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload all --trace 1      # every workload, per-layer split
//	bash perfbench/run.sh --workload serve-mixed --repeat 5   # steadiness summary
//	bash perfbench/run.sh --pin                          # print the pinned outputs
//
// The last line of a run's standard output is one JSON object with the
// keys correct, attempted, failed and metrics; --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones.
package main

import (
	"bufio"
	"bytes"
	"context"
	_ "embed"
	"encoding/gob"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"

	"clustersim/internal/engine"
)

// ledger is the benchmark's pinned reference (ledger.json): the trace
// length of a regeneration, each rendered section's digest, the exact
// work of one cold pass, and which end-to-end metric each per-layer
// metric should move.
type ledger struct {
	TraceUops int               `json:"trace_uops"`
	Sections  map[string]string `json:"sections"`
	ColdPass  map[string]int64  `json:"cold_pass"`
	Moves     map[string]string `json:"moves"`
}

//go:embed ledger.json
var ledgerJSON []byte

func loadLedger() (*ledger, error) {
	var l ledger
	if err := json.Unmarshal(ledgerJSON, &l); err != nil {
		return nil, fmt.Errorf("ledger.json: %w", err)
	}
	return &l, nil
}

// coldCounts maps each pinned cold-pass count to where it is measured.
func coldCounts(delta counters, sims, uops, cycles int64) map[string]int64 {
	return map[string]int64{
		"engine.simulations":  int64(delta["clusterd_engine_simulations_total"]),
		"engine.result_hits":  int64(delta["clusterd_engine_result_hits_total"]),
		"engine.trace_hits":   int64(delta["clusterd_engine_trace_hits_total"]),
		"engine.program_hits": int64(delta["clusterd_engine_program_hits_total"]),
		"distinct_results":    sims,
		"pipeline.sim_uops":   uops,
		"pipeline.sim_cycles": cycles,
	}
}

// checkCold flags every cold-pass count that deviates from its pin and
// returns how many did.
func (l *ledger) checkCold(delta counters, sims, uops, cycles int64) int {
	n := 0
	got := coldCounts(delta, sims, uops, cycles)
	for _, k := range sortedKeys(l.ColdPass) {
		if got[k] != l.ColdPass[k] {
			fmt.Fprintf(os.Stderr, "perfbench: pin deviation: %s = %d, pinned %d\n", k, got[k], l.ColdPass[k])
			n++
		}
	}
	return n
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// metricDef is one reported metric.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user sees, reported with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"eval_s", "s"},
	{"hit_p50_ms", "ms"},
	{"miss_p50_ms", "ms"},
	{"peak_rss_mb", "MiB"},
}

// perLayerDefs are the traced run's metrics, in report order.
var perLayerDefs = []metricDef{
	{"experiments.table1_s", "s"}, {"experiments.fig5_s", "s"}, {"experiments.fig6_s", "s"},
	{"experiments.fig7_s", "s"}, {"experiments.policyspace_s", "s"}, {"experiments.ablation_s", "s"},
	{"engine.simulations", "count"}, {"engine.result_hit_ratio", "ratio"}, {"engine.program_hit_ratio", "ratio"},
	{"engine.trace_hit_ratio", "ratio"}, {"engine.core_pool_hit_ratio", "ratio"}, {"engine.trace_gz_peak_mb", "MiB"},
	{"engine.queue_s", "s"}, {"engine.cache_hit_s", "s"},
	{"annotate.busy_s", "s"}, {"annotate.calls", "count"},
	{"expand.busy_s", "s"}, {"expand.calls", "count"}, {"engine.trace_unpacks", "count"},
	{"execute.busy_s", "s"}, {"execute.calls", "count"}, {"pipeline.sim_uops", "count"},
	{"pipeline.sim_cycles", "count"}, {"pipeline.host_ns_per_cycle", "ns"}, {"pipeline.host_ns_per_uop", "ns"},
	{"pipeline.low_ipc_busy_share", "ratio"},
	{"encode.busy_s", "s"}, {"store_put.busy_s", "s"}, {"store_get.busy_s", "s"},
	{"store.hit_ratio", "ratio"}, {"store.bytes", "bytes"},
	{"service.submit_ms", "ms"}, {"service.stream_ms", "ms"}, {"service.result_ms", "ms"},
	{"service.requests", "count"}, {"service.sse_bytes", "bytes"},
	{"admission.rejects", "count"},
	{"client.submit_ms", "ms"}, {"client.stream_ms", "ms"}, {"client.fetch_ms", "ms"}, {"client.overhead_ms", "ms"},
	{"fleet.max_worker_share", "ratio"}, {"fleet.straggler_ratio", "ratio"},
	{"runtime.alloc_mb", "MiB"}, {"runtime.gc_cycles", "count"}, {"runtime.gc_pause_ms", "ms"},
	{"loadgen.sent", "count"}, {"loadgen.hits", "count"}, {"loadgen.misses", "count"}, {"loadgen.late_p99_ms", "ms"},
	{"hit_p99_ms", "ms"}, {"miss_p90_ms", "ms"}, {"miss_low_ipc_p50_ms", "ms"},
	{"trace.overhead_frac", "ratio"}, {"trace.unaccounted_frac", "ratio"},
	{"fail_frac", "ratio"}, {"pins.deviations", "count"},
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// lateLimit is how far behind its schedule the generator may fall (at
// the 99th percentile) before the run is invalid: beyond it, the system
// could not keep up with the offered rate and a backlog grew.
const lateLimit = 250 * time.Millisecond

// latencies derives the interactive latency percentiles, refusing a run
// whose generator fell behind its schedule or whose samples are too few
// for a percentile.
func latencies(o *outcome) (map[string]float64, error) {
	var hits, misses, lowIPC []time.Duration
	for _, s := range o.samples {
		switch {
		case s.Hit:
			hits = append(hits, s.Latency)
		case s.LowIPC:
			lowIPC = append(lowIPC, s.Latency)
		default:
			misses = append(misses, s.Latency)
		}
	}
	fmt.Printf("samples: %d regeneration passes, %d hits, %d misses, %d low-IPC misses, late p99 %.3f ms\n",
		len(o.passes)+len(o.tracedPasses), len(hits), len(misses), len(lowIPC), lateP99(o.samples))
	if late := lateP99(o.samples); late > float64(lateLimit/time.Millisecond) {
		return nil, fmt.Errorf("run invalid: the generator fell behind its schedule (late p99 %.1f ms > %v)", late, lateLimit)
	}
	m := map[string]float64{}
	for _, p := range []struct {
		name string
		ds   []time.Duration
		q    float64
	}{{"hit_p50_ms", hits, 0.5}, {"hit_p99_ms", hits, 0.99}, {"miss_p50_ms", misses, 0.5}, {"miss_p90_ms", misses, 0.9},
		{"miss_low_ipc_p50_ms", lowIPC, 0.5}} {
		v, err := latencyPercentile(p.name, p.ds, p.q)
		if err != nil {
			return nil, err
		}
		m[p.name] = v
	}
	return m, nil
}

func main() {
	var cfg config
	var traceFlag, repeat int
	var pin bool
	var helper string
	flag.StringVar(&cfg.workload, "workload", "", "figs-cold | figs-warm-fleet | serve-mixed | all")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "measured time of one run")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.IntVar(&repeat, "repeat", 0, "run the workload this many times (seeds seed, seed+1, ...) and summarise each metric")
	flag.BoolVar(&pin, "pin", false, "regenerate once and print the ledger's pinned sections and cold-pass counts")
	flag.StringVar(&helper, "helper", "", "internal: run as a run's helper process ("+helperPersisted+" | "+helperReferences+")")
	flag.Parse()
	cfg.trace = traceFlag == 1
	cfg.nproc = runtime.NumCPU()
	runtime.GOMAXPROCS(cfg.nproc)

	if err := run(cfg, repeat, pin, helper); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg config, repeat int, pin bool, helper string) error {
	pins, err := loadLedger()
	if err != nil {
		return err
	}
	if pin {
		return printPins(cfg, pins)
	}
	if repeat > 0 || cfg.workload == "all" {
		return summarise(cfg, repeat)
	}
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			def = &workloads[i]
		}
	}
	if def == nil {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if helper != "" {
		return runHelper(cfg, *def, helper, pins)
	}
	printEnv(os.Stderr, cfg)
	o, err := runWorkload(context.Background(), cfg, *def, pins)
	if err != nil {
		return err
	}
	lat, err := latencies(o)
	if err != nil {
		return err
	}
	values, defs := o.layers, perLayerDefs
	if !cfg.trace {
		values = map[string]float64{
			"setup_s":     medianSeconds(o.setups),
			"eval_s":      medianSeconds(o.passes),
			"peak_rss_mb": o.peakRSSMiB,
		}
		defs = endToEnd
	}
	for k, v := range lat {
		values[k] = v
	}
	res := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Printf("%-28s %14.6g %s\n", d.name, v, d.unit)
	}
	fmt.Printf("fail_frac %d/%d\n", o.failed, o.attempted)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// Helpers are child processes of a run that compute what the run needs
// without counting in its peak resident set. Each prints gob-encoded
// blobs, keyed as the run uses them.
const (
	helperPersisted  = "persisted"  // the workers' persisted result cache
	helperReferences = "references" // engine.Execute results of the interactive jobs
)

// fromHelper runs a helper for the run's workload and seed and returns
// what it printed.
func fromHelper(cfg config, helper string) (map[string][]byte, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--helper", helper, "--workload", cfg.workload, "--seed", fmt.Sprint(cfg.seed))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("helper %s: %w", helper, err)
	}
	var blobs map[string][]byte
	if err := gob.NewDecoder(bytes.NewReader(out)).Decode(&blobs); err != nil {
		return nil, fmt.Errorf("helper %s: %w", helper, err)
	}
	return blobs, nil
}

// runHelper is the helper process: it computes the persisted cache of the
// workload's workers (the results of one local regeneration, under their
// store keys) or the references of its interactive schedule.
func runHelper(cfg config, def workloadDef, helper string, pins *ledger) error {
	ctx := context.Background()
	var blobs map[string][]byte
	switch helper {
	case helperPersisted:
		p, err := regenerate(ctx, engine.New(engine.Options{Parallelism: cfg.nproc}), def.exps, pins.TraceUops, nil)
		if err != nil {
			return err
		}
		if p.failed > 0 {
			return fmt.Errorf("%d jobs of the persisted regeneration failed", p.failed)
		}
		if blobs, err = persist(p); err != nil {
			return err
		}
	case helperReferences:
		// The schedule's jobs depend on the seed only, not on its span.
		var err error
		if blobs, err = references(ctx, schedule(cfg.seed, hotSet(pins.TraceUops), 0), cfg.nproc); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown helper %q", helper)
	}
	return gob.NewEncoder(os.Stdout).Encode(blobs)
}

// printEnv describes the machine a run measured.
func printEnv(w *os.File, cfg config) {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	fmt.Fprintf(w, "env: nproc %d, GOMAXPROCS %d, %s, %s/%s, cpu %q\n",
		cfg.nproc, runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, cpu)
}

// printPins regenerates the whole evaluation once on a cold engine and
// prints the values ledger.json pins.
func printPins(cfg config, pins *ledger) error {
	ctx := context.Background()
	eng := engine.New(engine.Options{Parallelism: cfg.nproc})
	p, err := regenerate(ctx, eng, allExperiments, pins.TraceUops, nil)
	if err != nil {
		return err
	}
	sims, uops, cycles := simulatedWork(p.results)
	out := struct {
		Sections map[string]string `json:"sections"`
		ColdPass map[string]int64  `json:"cold_pass"`
	}{map[string]string{}, coldCounts(engineCounters(eng), sims, uops, cycles)}
	for name, text := range p.texts {
		out.Sections[name] = digest(text)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// summarise runs workloads as child processes — every workload once for
// --workload all, or one workload --repeat times on successive seeds —
// and prints each metric's median and quartiles across the runs.
func summarise(cfg config, repeat int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	repeat = max(repeat, 1)
	printEnv(os.Stdout, cfg)
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	var failed []string
	for _, name := range names {
		values := map[string][]float64{}
		units := map[string]string{}
		for i := 0; i < repeat; i++ {
			seed := cfg.seed + int64(i)
			cmd := exec.Command(self, "--workload", name, "--seed", fmt.Sprint(seed),
				"--seconds", fmt.Sprint(cfg.seconds), "--trace", trace)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				failed = append(failed, fmt.Sprintf("%s seed %d: %v", name, seed, err))
				continue
			}
			var res result
			if err := json.Unmarshal(lastLine(stdout), &res); err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			if !res.Correct {
				failed = append(failed, fmt.Sprintf("%s seed %d: %d of %d operations failed", name, seed, res.Failed, res.Attempted))
			}
			for k, v := range res.Metrics {
				values[k] = append(values[k], v.Value)
				units[k] = v.Unit
			}
		}
		fmt.Printf("\n%s: %d runs\n", name, repeat)
		fmt.Printf("%-28s %14s %14s %14s %8s %s\n", "metric", "median", "q1", "q3", "spread", "unit")
		for _, k := range sortedKeys(values) {
			q1, q3 := quartiles(values[k])
			med := median(values[k])
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			fmt.Printf("%-28s %14.6g %14.6g %14.6g %8.4f %s  %.4g\n", k, med, q1, q3, spread, units[k], values[k])
		}
	}
	if len(failed) > 0 {
		return errors.New(strings.Join(failed, "; "))
	}
	return nil
}

// lastLine returns the last non-empty line of out.
func lastLine(out []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	return last
}
