package clustersim

// Benchmark harness: one testing.B benchmark per paper table/figure plus
// the design-choice ablations and substrate micro-benchmarks.
//
//	go test -bench=. -benchmem
//
// Figure/table benches run a reduced suite per iteration (the full-suite
// reports come from cmd/steerbench) and report the paper-relevant summary
// statistics via b.ReportMetric: slowdown percentages vs the OP baseline,
// copy ratios, and steering-logic rates.

import (
	"runtime"
	"testing"

	"clustersim/internal/engine"
	"clustersim/internal/experiments"
	"clustersim/internal/partition"
	"clustersim/internal/pipeline"
	"clustersim/internal/prog"
	"clustersim/internal/steer"
	"clustersim/internal/trace"
	"clustersim/internal/uarch"
	"clustersim/internal/workload"
)

// benchOpts keeps per-iteration work small enough for -bench runs while
// still exercising every machine component.
func benchOpts() ExperimentOptions {
	return ExperimentOptions{NumUops: 10_000, Quick: true}
}

// BenchmarkTable1Complexity regenerates Table 1: steering-logic activity of
// the hardware-only OP scheme vs the hybrid VC scheme.
func BenchmarkTable1Complexity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := Table1(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(steer.PerKuop(r.OP.DependenceChecks, r.OP.Steered), "OP-depchecks/kuop")
			b.ReportMetric(steer.PerKuop(r.VC.MapReads, r.VC.Steered), "VC-mapreads/kuop")
			b.ReportMetric(steer.PerKuop(r.VC.DependenceChecks, r.VC.Steered), "VC-depchecks/kuop")
		}
	}
}

// BenchmarkFig5 regenerates Figure 5: 2-cluster slowdowns vs OP for
// one-cluster, OB, RHOP and VC (paper averages: 12.19 / 6.50 / 5.40 / 2.62).
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := Fig5(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(r.AllAvg["one-cluster"], "one-cluster-slowdown-%")
			b.ReportMetric(r.AllAvg["OB"], "OB-slowdown-%")
			b.ReportMetric(r.AllAvg["RHOP"], "RHOP-slowdown-%")
			b.ReportMetric(r.AllAvg["VC"], "VC-slowdown-%")
		}
	}
}

// BenchmarkFig6Scatter regenerates Figure 6: per-trace copy reduction and
// workload-balance improvement of VC against OB, RHOP and OP.
func BenchmarkFig6Scatter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := Fig6(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, panel := range r.Panels {
				b.ReportMetric(panel.CopyReducedFrac*100, "copyreduced-vs-"+panel.Versus+"-%")
			}
		}
	}
}

// BenchmarkFig7 regenerates Figure 7: 4-cluster slowdowns vs OP, including
// VC(4→4) vs VC(2→4) and their copy ratio (paper: 1.28×).
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := Fig7(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(r.AllAvg["OB"], "OB-slowdown-%")
			b.ReportMetric(r.AllAvg["RHOP"], "RHOP-slowdown-%")
			b.ReportMetric(r.AllAvg["VC"], "VC44-slowdown-%")
			b.ReportMetric(r.AllAvg["VC(2->4)"], "VC24-slowdown-%")
			b.ReportMetric(r.CopyRatio44vs24, "copies-44/24")
		}
	}
}

// BenchmarkAblationChainLen sweeps the VC chain-length cap.
func BenchmarkAblationChainLen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationChainLen(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, pt := range r.Points {
				b.ReportMetric(pt.SlowdownPct, pt.Label+"-slowdown-%")
			}
		}
	}
}

// BenchmarkAblationNumVC sweeps the virtual-cluster count on four clusters.
func BenchmarkAblationNumVC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationNumVC(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, pt := range r.Points {
				b.ReportMetric(pt.SlowdownPct, pt.Label+"-slowdown-%")
			}
		}
	}
}

// BenchmarkAblationPrefetch sweeps the substrate's prefetch degree.
func BenchmarkAblationPrefetch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationPrefetch(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPolicySpace runs the hardware-heuristic survey (extension of
// the paper's §3.1 discussion).
func BenchmarkPolicySpace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.PolicySpace(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, pt := range r.Points {
				b.ReportMetric(pt.SlowdownPct, pt.Label+"-slowdown-%")
			}
		}
	}
}

// --- substrate micro-benchmarks ---------------------------------------------

// benchTrace builds a reusable trace for pipeline micro-benchmarks.
func benchTrace(b *testing.B, name string, uops int) *trace.Trace {
	b.Helper()
	sp := workload.ByName(name)
	if sp == nil {
		b.Fatalf("workload %s missing", name)
	}
	p := sp.Program.Clone()
	partition.AnnotateVC(p, partition.Options{NumVC: 2})
	return trace.Expand(p, trace.Options{NumUops: uops, Seed: sp.Seed})
}

// BenchmarkCoreHotLoop is the regression-gated microbenchmark of the
// pipeline's cycle loop: one full 10k-uop simulation per iteration under
// each steering policy family, reporting simulated uops per second and
// allocations per simulated uop. Each case builds and warms one core and
// Resets it before every iteration, as the engine's core pool does, so
// the numbers cover only the pooled steady-state loop (windowed core
// state, the event wheel and values' waiter lists keep it allocation-free;
// what remains is the per-run policy and detached metrics).
// CoreConstruction gates construction separately. The crafty cases time
// the busy loop; OP-mcf times a memory-bound simpoint whose cycles are
// mostly idle, so it guards the idle-cycle fast-forward. CI runs this
// bench, converts the output to BENCH_6.json via cmd/benchjson, and fails
// on throughput or allocation regressions against the committed baseline.
func BenchmarkCoreHotLoop(b *testing.B) {
	// Each policy runs on a trace annotated by its own compiler pass (a
	// Static policy over VC annotations would degenerate to one cluster).
	cases := []struct {
		name     string
		simpoint string
		annotate func(*prog.Program, partition.Options)
		make     func() steer.Policy
	}{
		{"OP", "crafty", partition.AnnotateVC, func() steer.Policy { return &steer.OP{} }},
		{"VC", "crafty", partition.AnnotateVC, func() steer.Policy { return steer.NewVC(2) }},
		{"OB", "crafty", partition.AnnotateOB, func() steer.Policy { return &steer.Static{Label: "OB"} }},
		{"OP-mcf", "mcf", partition.AnnotateVC, func() steer.Policy { return &steer.OP{} }},
	}
	for _, bc := range cases {
		bc := bc
		b.Run(bc.name, func(b *testing.B) {
			sp := workload.ByName(bc.simpoint)
			p := sp.Program.Clone()
			bc.annotate(p, partition.Options{NumVC: 2, NumClusters: 2})
			tr := trace.Expand(p, trace.Options{NumUops: 10_000, Seed: sp.Seed})
			cfg := pipeline.DefaultConfig(2)
			core, err := pipeline.NewCore(cfg, bc.make(), tr)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := core.Run(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := core.Reset(cfg, bc.make(), tr); err != nil {
					b.Fatal(err)
				}
				if _, err := core.Run(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			uops := float64(len(tr.Uops)) * float64(b.N)
			b.ReportMetric(uops/b.Elapsed().Seconds(), "uops/s")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/uops, "allocs/uop")
		})
	}
}

// BenchmarkCoreConstruction is the regression-gated microbenchmark of
// per-run fixed cost: building a machine fresh (NewCore — every ring,
// cache and queue allocated) versus rewinding a pooled one (Reset — the
// engine's sweep path, which zeroes state in place). The pooled path must
// stay at least an order of magnitude below fresh construction in
// allocations; CI gates allocs/op for both via cmd/benchjson.
func BenchmarkCoreConstruction(b *testing.B) {
	tr := benchTrace(b, "crafty", 2_000)
	cfg := pipeline.DefaultConfig(2)
	b.Run("Fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := pipeline.NewCore(cfg, steer.NewVC(2), tr); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Pooled", func(b *testing.B) {
		core, err := pipeline.NewCore(cfg, steer.NewVC(2), tr)
		if err != nil {
			b.Fatal(err)
		}
		// Dirty the core once so the first measured Reset rewinds real
		// post-run state, as every pooled reuse does.
		if _, err := core.Run(); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := core.Reset(cfg, steer.NewVC(2), tr); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkResultCodec measures the result codec on a real result (3,000
// uops of gzip-1 under OP): Encode is what every persisted miss pays,
// Decode what every remote fetch and store hit pays. CI gates both on
// allocs/op and B/op via cmd/benchjson.
func BenchmarkResultCodec(b *testing.B) {
	res := Run(workload.ByName("gzip-1"), SetupOP(2), RunOptions{NumUops: 3000})
	if res.Err != nil {
		b.Fatal(res.Err)
	}
	blob, err := engine.EncodeResult(res)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := engine.EncodeResult(res); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := engine.DecodeResult(blob); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPipelineOP measures raw simulation throughput under the
// hardware-only policy (uops simulated per second).
func BenchmarkPipelineOP(b *testing.B) {
	tr := benchTrace(b, "crafty", 20_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core, err := pipeline.NewCore(pipeline.DefaultConfig(2), &steer.OP{}, tr)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(tr.Uops)*b.N)/b.Elapsed().Seconds(), "uops/s")
}

// BenchmarkPipelineVC measures simulation throughput under the hybrid
// policy (mapping table + counters only).
func BenchmarkPipelineVC(b *testing.B) {
	tr := benchTrace(b, "crafty", 20_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core, err := pipeline.NewCore(pipeline.DefaultConfig(2), steer.NewVC(2), tr)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(tr.Uops)*b.N)/b.Elapsed().Seconds(), "uops/s")
}

// BenchmarkVCPartitioner measures the compile-time VC pass (Fig. 2).
func BenchmarkVCPartitioner(b *testing.B) {
	sp := workload.ByName("swim")
	for i := 0; i < b.N; i++ {
		p := sp.Program.Clone()
		partition.AnnotateVC(p, partition.Options{NumVC: 2})
	}
}

// BenchmarkRHOPPartitioner measures the multilevel RHOP pass.
func BenchmarkRHOPPartitioner(b *testing.B) {
	sp := workload.ByName("swim")
	for i := 0; i < b.N; i++ {
		p := sp.Program.Clone()
		partition.AnnotateRHOP(p, partition.Options{NumClusters: 2})
	}
}

// BenchmarkTraceExpansion measures dynamic trace generation.
func BenchmarkTraceExpansion(b *testing.B) {
	sp := workload.ByName("gcc-1")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trace.Expand(sp.Program, trace.Options{NumUops: 10_000, Seed: int64(i)})
	}
	b.ReportMetric(float64(10_000*b.N)/b.Elapsed().Seconds(), "uops/s")
}

// BenchmarkProgramGeneration measures synthetic workload synthesis.
func BenchmarkProgramGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		workload.Generate(workload.SpecByName("gzip"), int64(i))
	}
}

// BenchmarkCustomKernel runs the public-API path end to end on a custom
// program — the downstream-user hot path (build, annotate, expand, run).
func BenchmarkCustomKernel(b *testing.B) {
	pb := NewProgram("kernel")
	for i := 0; i < 8; i++ {
		r := uarch.IntReg(1 + i%4)
		pb.Int(uarch.OpAdd, r, r, uarch.IntReg(0))
	}
	pb.Load(uarch.IntReg(5), uarch.IntReg(15), prog.MemRef{
		Pattern: prog.MemStride, Stream: 0, StrideBytes: 8, WorkingSet: 1 << 16,
	})
	p := pb.MustBuild()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := CustomWorkload(p.Clone(), int64(i))
		res := Run(w, SetupVC(2, 2), RunOptions{NumUops: 5_000})
		if res.Err != nil {
			b.Fatal(res.Err)
		}
	}
}
