// Package clustersim reproduces "A Software-Hardware Hybrid Steering
// Mechanism for Clustered Microarchitectures" (Cai, Codina, González &
// González, IPPS/IPDPS 2008) as a self-contained Go library: a cycle-level
// clustered out-of-order processor simulator, the compiler-side steering
// passes (virtual-cluster partitioning with chains, RHOP, SPDI/OB), the
// runtime steering policies (OP, one-cluster, static-follow, VC mapping),
// a synthetic SPEC CPU2000-like workload suite, and a benchmark harness
// that regenerates every table and figure of the paper's evaluation.
//
// # Quick start
//
//	sp := clustersim.WorkloadByName("gzip-1")
//	res := clustersim.Run(sp, clustersim.SetupVC(2, 2), clustersim.RunOptions{NumUops: 100_000})
//	fmt.Printf("IPC %.2f, %d copies\n", res.Metrics.IPC(), res.Metrics.Copies)
//
// The five steering configurations of the paper's Table 3 are built with
// SetupOP, SetupOneCluster, SetupOB, SetupRHOP and SetupVC; Run executes
// one (workload, configuration) pair and RunMatrix fans a whole experiment
// across CPU cores. The experiment harness lives behind Fig5, Fig6, Fig7,
// Table1 and the Ablation* functions; `cmd/steerbench` drives them all.
//
// Every run path executes on a caching, streaming simulation engine
// (NewEngine): sharing one engine across runs and experiments memoizes
// annotated programs and whole results, simulating each unique
// (workload, configuration, options) combination exactly once per process,
// with context cancellation; wrap any Runner in Progress for live progress
// reporting.
package clustersim

import (
	"context"

	"clustersim/client"
	"clustersim/fleet"
	"clustersim/internal/engine"
	"clustersim/internal/experiments"
	"clustersim/internal/pipeline"
	"clustersim/internal/prog"
	"clustersim/internal/sim"
	"clustersim/internal/store"
	"clustersim/internal/trace"
	"clustersim/internal/workload"
)

// MachineConfig is the simulated machine's parameter set (paper Table 2).
type MachineConfig = pipeline.Config

// DefaultMachine returns the paper's machine with the given cluster count
// (2 for the base experiments, 4 for the scalability study).
func DefaultMachine(clusters int) MachineConfig { return pipeline.DefaultConfig(clusters) }

// Metrics is the outcome of one simulation (cycles, IPC, copies,
// allocation stalls, per-cluster breakdowns, memory and branch statistics).
type Metrics = pipeline.Metrics

// Setup is one steering configuration: a declarative SetupSpec (kind and
// counts, naming a compiler annotation pass paired with a runtime
// steering policy) plus its derived label.
type Setup = sim.Setup

// RunOptions sizes a simulation run.
type RunOptions = sim.RunOptions

// Result is one simulation outcome.
type Result = sim.Result

// Workload is one weighted simulation point of the synthetic suite.
type Workload = workload.Simpoint

// Program is the static program representation consumed by the compiler
// passes and the trace expander; build custom workloads with NewProgram.
type Program = prog.Program

// ProgramBuilder assembles custom static programs.
type ProgramBuilder = prog.Builder

// NewProgram starts building a custom program.
func NewProgram(name string) *ProgramBuilder { return prog.NewBuilder(name) }

// Trace is an expanded dynamic micro-op stream.
type Trace = trace.Trace

// ExpandTrace expands a program into a dynamic trace of n micro-ops using
// the given seed; the same (program, seed) always yields the same trace.
func ExpandTrace(p *Program, n int, seed int64) *Trace {
	return trace.Expand(p, trace.Options{NumUops: n, Seed: seed})
}

// SetupOP returns the hardware-only occupancy-aware baseline (the paper's
// OP configuration).
func SetupOP(clusters int) Setup { return sim.SetupOP(clusters) }

// SetupOneCluster steers every micro-op to cluster 0.
func SetupOneCluster(clusters int) Setup { return sim.SetupOneCluster(clusters) }

// SetupOB returns the SPDI operation-based software-only configuration.
func SetupOB(clusters int) Setup { return sim.SetupOB(clusters) }

// SetupRHOP returns the RHOP software-only configuration.
func SetupRHOP(clusters int) Setup { return sim.SetupRHOP(clusters) }

// SetupVC returns the paper's hybrid virtual-cluster configuration with
// numVC virtual clusters on a machine with `clusters` physical clusters.
func SetupVC(numVC, clusters int) Setup { return sim.SetupVC(numVC, clusters) }

// SetupVCChain is SetupVC with an explicit chain-length cap.
func SetupVCChain(numVC, clusters, maxChainLen int) Setup {
	return sim.SetupVCChain(numVC, clusters, maxChainLen)
}

// Run executes one (workload, setup) simulation.
func Run(w *Workload, setup Setup, opt RunOptions) *Result { return sim.RunOne(w, setup, opt) }

// RunMatrix executes every (workload × setup) pair across a worker pool;
// results are indexed [workload][setup]. Parallelism ≤ 0 uses all cores.
func RunMatrix(ws []*Workload, setups []Setup, opt RunOptions, parallelism int) [][]*Result {
	return sim.RunMatrix(ws, setups, opt, parallelism)
}

// Engine is the shared caching, streaming simulation engine. All run paths
// (Run, RunMatrix, the experiment harness, cmd/steerbench) execute on an
// engine; sharing one instance across calls memoizes annotated programs
// and whole results, so each unique (workload, setup, options) simulation
// executes exactly once per process.
type Engine = engine.Engine

// EngineOptions configures a new Engine (parallelism, caching, tracing).
type EngineOptions = engine.Options

// EngineStats snapshots an engine's cache-hit counters.
type EngineStats = engine.CacheStats

// Job is one unit of engine work: simulate one workload under one setup.
type Job = engine.Job

// JobResult pairs a streamed engine result with its originating job.
type JobResult = engine.JobResult

// NewEngine builds a simulation engine. Submit work with Engine.Run (one
// blocking job), Engine.RunMatrix (blocking matrix) or Engine.Stream
// (results channel); all accept a context for cancellation.
func NewEngine(opts EngineOptions) *Engine { return engine.New(opts) }

// ResultStore is a content-addressed blob store for simulation results.
// Wire one into EngineOptions.ResultStore and completed results survive
// the engine — with a disk store, the process: a rerun of the same
// workload is served without simulating.
type ResultStore = store.Store

// StoreStats snapshots a store's hit/occupancy counters.
type StoreStats = store.Stats

// OpenDiskStore opens (creating if needed) a persistent result store
// under dir, bounded to maxBytes of payload (zero = unbounded; oldest
// records are collected first when over budget).
func OpenDiskStore(dir string, maxBytes int64) (ResultStore, error) {
	return store.OpenDisk(dir, maxBytes)
}

// NewMemoryStore builds a byte-bounded in-memory result store.
func NewMemoryStore(maxBytes int64) ResultStore { return store.NewMemory(maxBytes) }

// NewTieredStore layers a fast store over a slow one (memory over disk):
// reads promote slow-tier hits, writes land in both.
func NewTieredStore(fast, slow ResultStore) ResultStore { return store.NewTiered(fast, slow) }

// JobSpec is the declarative, serializable form of a Job (the clusterd
// wire format); resolve it with JobFromSpec.
type JobSpec = engine.JobSpec

// SetupSpec names a steering configuration declaratively (the Setup half
// of a JobSpec).
type SetupSpec = engine.SetupSpec

// OptionsSpec is the serializable subset of RunOptions.
type OptionsSpec = engine.OptionsSpec

// MachineSpec overrides the Table 2 machine knob by knob (RunOptions.Machine,
// OptionsSpec.Machine); the zero value is the Table 2 machine.
type MachineSpec = engine.MachineSpec

// PrefetchOff is the MachineSpec.PrefetchDegree that turns prefetching off.
const PrefetchOff = engine.PrefetchOff

// JobFromSpec resolves a declarative job spec against the synthetic suite
// and validates its setup spec, machine override and run size.
func JobFromSpec(spec JobSpec) (Job, error) { return sim.JobFromSpec(spec) }

// SpecFromJob converts a runnable Job back to its declarative wire form —
// the inverse of JobFromSpec. Non-suite workloads, histogram runs, run
// sizes JobFromSpec refuses, and setups or machine overrides that do not
// resolve have no wire form and return an error; such jobs execute
// locally only.
func SpecFromJob(job Job) (JobSpec, error) { return sim.SpecFromJob(job) }

// Runner is the execution seam every consumer submits jobs through: the
// local Engine implements it, and NewRemoteRunner returns one that ships
// jobs to a clusterd fleet. Code written against Runner — RunOn,
// RunMatrixOn, ExperimentOptions.Runner — runs unchanged either way.
type Runner = engine.Runner

// NewRemoteRunner connects to the clusterd instance at baseURL
// ("http://host:8080") and returns a Runner executing jobs there,
// deduplicated against everything the daemon's content-addressed store
// has ever computed. local, when non-nil, handles jobs that cannot travel
// (non-suite workloads, histogram runs) through client.Hybrid; with a nil
// local such jobs fail. Wrap the result in Progress for live progress;
// for backoff, auth and tracing options use the clustersim/client package
// directly.
func NewRemoteRunner(baseURL string, local Runner) (Runner, error) {
	c, err := client.New(baseURL)
	if err != nil {
		return nil, err
	}
	return withLocal(client.NewRunner(c), local), nil
}

// NewFleetRunner shards simulation batches across the clusterd workers
// at urls by consistent hash of each job's result content key (every
// worker's store stays hot for its key range), merges the per-worker
// streams into one exactly-once result stream, and re-shards the jobs of
// a worker lost mid-stream onto the survivors. A single URL degrades to
// the plain single-host remote runner. local, when non-nil, handles jobs
// that cannot travel, as in NewRemoteRunner. For auth, re-admission and
// health-check options use the clustersim/fleet package directly.
func NewFleetRunner(urls []string, local Runner) (Runner, error) {
	if len(urls) == 1 {
		return NewRemoteRunner(urls[0], local)
	}
	f, err := fleet.New(urls)
	if err != nil {
		return nil, err
	}
	return withLocal(f, local), nil
}

// withLocal composes remote with local through client.Hybrid, or returns
// remote alone when there is no local runner.
func withLocal(remote, local Runner) Runner {
	if local == nil {
		return remote
	}
	return client.Hybrid(remote, local)
}

// Progress wraps r so that fn is called after every finished job with the
// wrapper-lifetime completed and submitted job counts and the job's
// "simpoint/setup" label. fn may be called concurrently; Stats passes
// through.
func Progress(r Runner, fn func(done, total int, label string)) Runner {
	return engine.Progress(r, fn)
}

// RunOn executes one simulation on any Runner with cancellation.
func RunOn(ctx context.Context, r Runner, w *Workload, setup Setup, opt RunOptions) *Result {
	return sim.RunOneOn(ctx, r, w, setup, opt)
}

// RunMatrixOn fans the (workload × setup) matrix through any Runner;
// results are indexed [workload][setup].
func RunMatrixOn(ctx context.Context, r Runner, ws []*Workload, setups []Setup, opt RunOptions) ([][]*Result, error) {
	return sim.RunMatrixOn(ctx, r, ws, setups, opt)
}

// RunContext executes one simulation on a shared engine with cancellation.
func RunContext(ctx context.Context, e *Engine, w *Workload, setup Setup, opt RunOptions) *Result {
	return e.Run(ctx, Job{Simpoint: w, Setup: setup, Opts: opt})
}

// Workloads returns the full synthetic CPU2000 suite: 26 SPECint and 14
// SPECfp weighted simulation points. The suite is generated once per
// process: every call returns fresh Workload structs, but their Programs
// are shared and must not be mutated (Clone one to edit it). The same
// holds for IntWorkloads, FPWorkloads, QuickWorkloads and WorkloadByName.
func Workloads() []*Workload { return workload.Suite() }

// IntWorkloads returns the SPECint points; FPWorkloads the SPECfp points.
func IntWorkloads() []*Workload { return workload.IntSuite() }

// FPWorkloads returns the SPECfp simulation points.
func FPWorkloads() []*Workload { return workload.FPSuite() }

// QuickWorkloads returns eight representative points for smoke runs.
func QuickWorkloads() []*Workload { return workload.QuickSuite() }

// WorkloadByName returns a suite member by figure label ("gzip-1", "mcf"),
// or nil.
func WorkloadByName(name string) *Workload { return workload.ByName(name) }

// CustomWorkload wraps a hand-built program as a runnable workload.
func CustomWorkload(p *Program, seed int64) *Workload {
	return &Workload{Name: p.Name, Bench: p.Name, Weight: 1, Program: p, Seed: seed}
}

// ExperimentOptions sizes the paper-experiment harness.
type ExperimentOptions = experiments.Options

// Fig5 regenerates Figure 5 (2-cluster slowdowns vs OP).
func Fig5(opt ExperimentOptions) (*experiments.Fig5Result, error) { return experiments.Fig5(opt) }

// Fig6 regenerates Figure 6 (copy-reduction / balance scatters).
func Fig6(opt ExperimentOptions) (*experiments.Fig6Result, error) { return experiments.Fig6(opt) }

// Fig7 regenerates Figure 7 (4-cluster scalability).
func Fig7(opt ExperimentOptions) (*experiments.Fig7Result, error) { return experiments.Fig7(opt) }

// Table1 measures the steering-complexity comparison (paper Table 1).
func Table1(opt ExperimentOptions) (*experiments.Table1Result, error) {
	return experiments.Table1(opt)
}

// Table2 renders the architectural parameters (paper Table 2).
func Table2() string { return experiments.Table2() }

// Table3 renders the evaluated configurations (paper Table 3).
func Table3() string { return experiments.Table3() }
