// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) on the simulated substrate: Figure 5 (2-cluster slowdowns
// vs the hardware-only OP baseline), Figure 6 (copy-reduction and
// workload-balance scatters), Figure 7 (4-cluster scalability), Tables 1–3,
// and ablations of the design choices the paper fixes (chain length,
// virtual-cluster count, region scope, interconnect, queue sizes,
// prefetching; see ablation.go).
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"clustersim/internal/engine"
	"clustersim/internal/sim"
	"clustersim/internal/stats"
	"clustersim/internal/workload"
)

// Options sizes an experiment run.
type Options struct {
	// NumUops is the dynamic trace length per simulation point. Zero means
	// 120000 (the full-fidelity default; the paper's points are 10M, which
	// only stretches the same steady states).
	NumUops int
	// Parallelism bounds concurrent simulations; zero means GOMAXPROCS.
	Parallelism int
	// Quick restricts the suite to eight representative simpoints (tests
	// and smoke runs).
	Quick bool
	// Runner is where the experiment's simulations execute: a local
	// *engine.Engine, a remote client.Runner fanning jobs out to a
	// clusterd fleet, or any other engine.Runner implementation. Passing
	// one engine to several experiments (steerbench -exp all) dedups
	// identical (simpoint, setup, options) runs across them. Nil means a
	// fresh private engine per experiment invocation (runs are still
	// cached within it). The harness itself is execution-agnostic —
	// every run goes through engine.RunMatrixOn over this runner.
	Runner engine.Runner
	// Context cancels in-flight experiment runs; nil means Background.
	Context context.Context
}

func (o Options) withDefaults() Options {
	if o.NumUops == 0 {
		o.NumUops = 120_000
	}
	if o.Runner == nil {
		o.Runner = engine.New(engine.Options{Parallelism: o.Parallelism})
	}
	if o.Context == nil {
		o.Context = context.Background()
	}
	return o
}

func (o Options) suite() []*workload.Simpoint {
	if o.Quick {
		return workload.QuickSuite()
	}
	return workload.Suite()
}

func (o Options) runOpts() sim.RunOptions {
	return sim.RunOptions{NumUops: o.NumUops}
}

// matrix fans the (suite × setups) runs through the experiment's runner
// and surfaces cancellation and the first run error.
func (o Options) matrix(sps []*workload.Simpoint, setups []sim.Setup, runOpts sim.RunOptions) ([][]*sim.Result, error) {
	res, err := engine.RunMatrixOn(o.Context, o.Runner, sps, setups, runOpts)
	if err != nil {
		return nil, err
	}
	return res, checkErrs(res)
}

// BenchAverage computes the per-benchmark PinPoints-weighted value, then
// returns the plain mean over benchmarks — the aggregation behind the
// paper's "INT AVG / FP AVG / CPU2000 AVG" bars.
func BenchAverage(sps []*workload.Simpoint, values []float64, filter func(*workload.Simpoint) bool) float64 {
	perBench := map[string]float64{}
	perBenchW := map[string]float64{}
	var order []string
	for i, sp := range sps {
		if filter != nil && !filter(sp) {
			continue
		}
		if _, seen := perBench[sp.Bench]; !seen {
			order = append(order, sp.Bench)
		}
		perBench[sp.Bench] += values[i] * sp.Weight
		perBenchW[sp.Bench] += sp.Weight
	}
	var xs []float64
	for _, b := range order {
		if perBenchW[b] > 0 {
			xs = append(xs, perBench[b]/perBenchW[b])
		}
	}
	return stats.Mean(xs)
}

// column returns column j of a [simpoint][setup] result matrix: one
// setup's results across the suite.
func column(res [][]*sim.Result, j int) []*sim.Result {
	col := make([]*sim.Result, len(res))
	for i, row := range res {
		col[i] = row[j]
	}
	return col
}

// summarize reduces one setup's results over the suite to the sweep and
// survey summary: the bench-averaged slowdown of col against the baseline
// results base (simpoint by simpoint), and col's copies per kilo-uop.
func summarize(sps []*workload.Simpoint, col, base []*sim.Result) (slowdownPct, copiesPerKuop float64) {
	slow := make([]float64, len(sps))
	var copies, uops int64
	for i := range sps {
		slow[i] = stats.SlowdownPct(col[i].Metrics.Cycles, base[i].Metrics.Cycles)
		copies += col[i].Metrics.Copies
		uops += col[i].Metrics.Uops
	}
	return BenchAverage(sps, slow, nil), float64(copies) * 1000 / float64(uops)
}

// checkErrs returns the first run error in a result matrix.
func checkErrs(res [][]*sim.Result) error {
	for _, row := range res {
		for _, cell := range row {
			if cell.Err != nil {
				return fmt.Errorf("%s/%s: %w", cell.Simpoint.Name, cell.Setup, cell.Err)
			}
		}
	}
	return nil
}

// sortedLabels renders map keys deterministically.
func sortedLabels(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// section renders a report header.
func section(title string) string {
	return fmt.Sprintf("%s\n%s\n", title, strings.Repeat("=", len(title)))
}
