package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"clustersim/internal/engine"
	"clustersim/internal/obs"
)

// counters is a set of cumulative counters keyed like /metrics series.
// Server-side counters come straight from each worker's exposition; the
// local engine, the client SDK's call observer and the Go runtime are
// folded into the same key space, so one derivation serves every
// deployment.
type counters map[string]float64

// gauges hold occupancy, not activity: a phase reports their last value
// rather than a difference.
var gauges = map[string]bool{
	`clusterd_store_bytes{tier="all"}`:             true,
	"clusterd_engine_trace_cache_bytes_high_water": true,
}

// sub returns the per-phase view b - a.
func (b counters) sub(a counters) counters {
	out := counters{}
	for k, v := range b {
		if gauges[k] {
			out[k] = v
		} else {
			out[k] = v - a[k]
		}
	}
	return out
}

// scaled returns c with every activity counter multiplied by f.
func (c counters) scaled(f float64) counters {
	out := counters{}
	for k, v := range c {
		if gauges[k] {
			out[k] = v
		} else {
			out[k] = v * f
		}
	}
	return out
}

// plus adds activity counters and keeps the larger gauge.
func (c counters) plus(o counters) counters {
	out := counters{}
	for k, v := range c {
		out[k] = v
	}
	for k, v := range o {
		if gauges[k] {
			out[k] = max(out[k], v)
		} else {
			out[k] += v
		}
	}
	return out
}

// matching sums the series of one family whose labels contain every
// given fragment.
func (c counters) matching(name string, fragments ...string) float64 {
	var total float64
next:
	for k, v := range c {
		if k != name && !strings.HasPrefix(k, name+"{") {
			continue
		}
		for _, f := range fragments {
			if !strings.Contains(k, f) {
				continue next
			}
		}
		total += v
	}
	return total
}

// engineCounters renders a local engine's stats and stage histograms in
// clusterd's /metrics names.
func engineCounters(eng *engine.Engine) counters {
	st := eng.Stats()
	c := counters{
		"clusterd_engine_simulations_total":            float64(st.Simulations),
		"clusterd_engine_result_hits_total":            float64(st.ResultHits),
		"clusterd_engine_result_misses_total":          float64(st.ResultMisses),
		"clusterd_engine_trace_hits_total":             float64(st.TraceHits),
		"clusterd_engine_trace_misses_total":           float64(st.TraceMisses),
		"clusterd_engine_program_hits_total":           float64(st.ProgramHits),
		"clusterd_engine_program_misses_total":         float64(st.ProgramMisses),
		"clusterd_engine_core_pool_hits_total":         float64(st.CorePoolHits),
		"clusterd_engine_core_pool_misses_total":       float64(st.CorePoolMisses),
		"clusterd_engine_trace_unpacks_total":          float64(st.TraceUnpacks),
		"clusterd_engine_trace_cache_bytes_high_water": float64(st.TraceBytesHighWater),
	}
	for _, s := range eng.Tracer().StageSnapshots() {
		label := fmt.Sprintf(`{stage=%q}`, s.Labels[0])
		c["clusterd_engine_stage_seconds_sum"+label] = s.Sum
		c["clusterd_engine_stage_seconds_count"+label] = float64(s.Count)
	}
	return c
}

// runtimeCounters reads the Go runtime's allocation and GC totals.
func runtimeCounters() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return counters{
		"go_alloc_bytes_total":      float64(ms.TotalAlloc),
		"go_gc_cycles_total":        float64(ms.NumGC),
		"go_gc_pause_seconds_total": float64(ms.PauseTotalNs) / 1e9,
	}
}

// callLog records the client SDK's per-route hop times (the SDK's
// WithCallObserver hook).
type callLog struct {
	mu sync.Mutex
	c  counters
}

func newCallLog() *callLog { return &callLog{c: counters{}} }

func (l *callLog) observe(route string, status int, d time.Duration) {
	label := fmt.Sprintf(`{route=%q}`, route)
	l.mu.Lock()
	l.c["client_seconds_sum"+label] += d.Seconds()
	l.c["client_seconds_count"+label]++
	l.mu.Unlock()
}

func (l *callLog) snapshot() counters {
	if l == nil {
		return counters{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return counters{}.plus(l.c)
}

// flightStats folds flight records into the tracing-coverage and
// execute-time splits.
type flightStats struct {
	total, unaccounted time.Duration
	execute, lowIPC    time.Duration
}

// lowIPC is the IPC below which a point counts as memory-bound: its host
// time follows its (many) simulated cycles, not its micro-ops.
const lowIPC = 0.5

func (f *flightStats) add(recs []obs.FlightRecord, ipcOf map[string]float64) {
	for _, r := range recs {
		f.total += r.Total
		f.unaccounted += r.Unaccounted()
		for _, s := range r.Spans {
			if s.Name != "execute" {
				continue
			}
			f.execute += s.Dur
			if ipc, ok := ipcOf[r.Label]; ok && ipc < lowIPC {
				f.lowIPC += s.Dur
			}
		}
	}
}

// ipcByLabel maps each flight label ("simpoint/setup") to its IPC.
func ipcByLabel(results []engine.JobResult, into map[string]float64) {
	for _, jr := range results {
		if r := jr.Result; r != nil && r.Err == nil && r.Metrics != nil && r.Metrics.Cycles > 0 {
			into[jr.Job.Simpoint.Name+"/"+jr.Job.Setup.Label] = float64(r.Metrics.Uops) / float64(r.Metrics.Cycles)
		}
	}
}

// ratio returns a/(a+b), or 0 when both are 0.
func ratio(a, b float64) float64 {
	if a+b == 0 {
		return 0
	}
	return a / (a + b)
}

// perCall returns sum/count in milliseconds, or 0 for no calls.
func perCall(sum, count float64) float64 {
	if count == 0 {
		return 0
	}
	return sum / count * 1000
}

// layerInputs is everything the traced run measured, scoped to one
// regeneration pass plus the whole interactive phase.
type layerInputs struct {
	c           counters // mean per traced pass + interactive phase
	experiments map[string][]time.Duration
	sims        int64 // per regeneration pass
	simUops     int64 // per regeneration pass
	simCycles   int64 // per regeneration pass
	missUops    int64 // simulated by interactive misses
	missCycles  int64
	flights     flightStats
	workerShare float64
	straggler   float64
	loadgen     []sample
	overhead    float64
	failFrac    float64
	deviations  int
}

// stageSum and stageCount read one engine stage's span totals.
func stageSum(c counters, stage string) float64 {
	return c.matching("clusterd_engine_stage_seconds_sum", fmt.Sprintf(`stage=%q`, stage))
}

func stageCount(c counters, stage string) float64 {
	return c.matching("clusterd_engine_stage_seconds_count", fmt.Sprintf(`stage=%q`, stage))
}

// serverMean is the mean server-side handler time of one route, in ms.
func serverMean(c counters, route string) float64 {
	frag := fmt.Sprintf(`route=%q`, route)
	return perCall(c.matching("clusterd_http_request_seconds_sum", frag), c.matching("clusterd_http_request_seconds_count", frag))
}

func clientMean(c counters, route string) float64 {
	frag := fmt.Sprintf(`route=%q`, route)
	return perCall(c.matching("client_seconds_sum", frag), c.matching("client_seconds_count", frag))
}

// overheadRoutes are the calls whose client hop and server handler span
// the same exchange, request to whole response. The stream route is not
// one: the client's observation ends when the response headers arrive,
// while the handler runs until the batch is done, simulations included.
var overheadRoutes = []string{"/v1/jobs", "/v1/results"}

// clientOverhead is the mean client hop time beyond the server's handler
// time over overheadRoutes, in ms.
func clientOverhead(c counters) float64 {
	var hop, handler, calls float64
	for _, r := range overheadRoutes {
		frag := fmt.Sprintf(`route=%q`, r)
		hop += c.matching("client_seconds_sum", frag)
		handler += c.matching("clusterd_http_request_seconds_sum", frag)
		calls += c.matching("client_seconds_count", frag)
	}
	return perCall(hop-handler, calls)
}

// perLayer derives every per-layer metric.
func perLayer(in layerInputs) map[string]float64 {
	c := in.c
	m := map[string]float64{}
	for _, name := range []string{"table1", "fig5", "fig6", "fig7", "policyspace", "ablation"} {
		m["experiments."+name+"_s"] = medianSeconds(in.experiments[name])
	}

	m["engine.simulations"] = float64(in.sims)
	m["engine.result_hit_ratio"] = ratio(c["clusterd_engine_result_hits_total"], c["clusterd_engine_result_misses_total"])
	m["engine.program_hit_ratio"] = ratio(c["clusterd_engine_program_hits_total"], c["clusterd_engine_program_misses_total"])
	m["engine.trace_hit_ratio"] = ratio(c["clusterd_engine_trace_hits_total"], c["clusterd_engine_trace_misses_total"])
	m["engine.core_pool_hit_ratio"] = ratio(c["clusterd_engine_core_pool_hits_total"], c["clusterd_engine_core_pool_misses_total"])
	m["engine.trace_gz_peak_mb"] = c["clusterd_engine_trace_cache_bytes_high_water"] / (1 << 20)
	m["engine.queue_s"] = stageSum(c, "queue")
	m["engine.cache_hit_s"] = stageSum(c, "cache_hit")
	m["engine.trace_unpacks"] = c["clusterd_engine_trace_unpacks_total"]

	m["annotate.busy_s"] = stageSum(c, "annotate")
	m["annotate.calls"] = stageCount(c, "annotate")
	m["expand.busy_s"] = stageSum(c, "expand")
	m["expand.calls"] = stageCount(c, "expand")

	exec := stageSum(c, "execute")
	m["execute.busy_s"] = exec
	m["execute.calls"] = stageCount(c, "execute")
	m["pipeline.sim_uops"] = float64(in.simUops)
	m["pipeline.sim_cycles"] = float64(in.simCycles)
	if cycles := in.simCycles + in.missCycles; cycles > 0 {
		m["pipeline.host_ns_per_cycle"] = exec * 1e9 / float64(cycles)
	}
	if uops := in.simUops + in.missUops; uops > 0 {
		m["pipeline.host_ns_per_uop"] = exec * 1e9 / float64(uops)
	}
	if in.flights.execute > 0 {
		m["pipeline.low_ipc_busy_share"] = float64(in.flights.lowIPC) / float64(in.flights.execute)
	}

	m["encode.busy_s"] = stageSum(c, "encode")
	m["store_put.busy_s"] = stageSum(c, "store_put")
	m["store_get.busy_s"] = stageSum(c, "store_get")
	m["store.hit_ratio"] = ratio(c[`clusterd_store_hits_total{tier="all"}`], c[`clusterd_store_misses_total{tier="all"}`])
	m["store.bytes"] = c[`clusterd_store_bytes{tier="all"}`]

	m["service.submit_ms"] = serverMean(c, "/v1/jobs")
	m["service.stream_ms"] = serverMean(c, "/v1/jobs/{id}/stream")
	m["service.result_ms"] = serverMean(c, "/v1/results")
	m["service.requests"] = c.matching("clusterd_http_request_seconds_count") - c.matching("clusterd_http_request_seconds_count", `route="/metrics"`)
	m["service.sse_bytes"] = c["clusterd_sse_bytes_total"]
	m["admission.rejects"] = c.matching("clusterd_admission_rejects_total")

	m["client.submit_ms"] = clientMean(c, "/v1/jobs")
	m["client.stream_ms"] = clientMean(c, "/v1/jobs/{id}/stream")
	m["client.fetch_ms"] = clientMean(c, "/v1/results")
	m["client.overhead_ms"] = clientOverhead(c)

	m["fleet.max_worker_share"] = in.workerShare
	m["fleet.straggler_ratio"] = in.straggler

	m["runtime.alloc_mb"] = c["go_alloc_bytes_total"] / (1 << 20)
	m["runtime.gc_cycles"] = c["go_gc_cycles_total"]
	m["runtime.gc_pause_ms"] = c["go_gc_pause_seconds_total"] * 1000

	hits := 0
	for _, s := range in.loadgen {
		if s.Hit {
			hits++
		}
	}
	m["loadgen.sent"] = float64(len(in.loadgen))
	m["loadgen.hits"] = float64(hits)
	m["loadgen.misses"] = float64(len(in.loadgen) - hits)
	m["loadgen.late_p99_ms"] = lateP99(in.loadgen)

	m["trace.overhead_frac"] = in.overhead
	if in.flights.total > 0 {
		m["trace.unaccounted_frac"] = float64(in.flights.unaccounted) / float64(in.flights.total)
	}
	m["fail_frac"] = in.failFrac
	m["pins.deviations"] = float64(in.deviations)
	return m
}

func medianSeconds(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return median(xs)
}

// stragglerRatio is the slowest worker sub-batch over the mean sub-batch
// of each fleet matrix, medianed over matrices. batches holds the
// client-side batch flights; windows the [start, end) of each matrix.
func stragglerRatio(batches []obs.FlightRecord, windows [][2]time.Time) float64 {
	var ratios []float64
	for _, w := range windows {
		var durs []float64
		for _, b := range batches {
			if !b.Start.Before(w[0]) && b.Start.Before(w[1]) {
				durs = append(durs, b.Total.Seconds())
			}
		}
		if len(durs) < 2 {
			continue
		}
		sort.Float64s(durs)
		var sum float64
		for _, d := range durs {
			sum += d
		}
		ratios = append(ratios, durs[len(durs)-1]/(sum/float64(len(durs))))
	}
	if len(ratios) == 0 {
		return 0
	}
	return median(ratios)
}
