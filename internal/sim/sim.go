// Package sim names steering configurations (compiler pass + runtime
// policy, paper Table 3) as declarative setups and runs them on machine
// configs (paper Table 2); the engine resolves each setup's spec.
// The heavy lifting — worker pooling, cancellation and artifact caching —
// lives in internal/engine; RunOne and RunMatrix are thin, API-compatible
// wrappers over it, kept for callers that need one-shot blocking runs
// without managing an engine instance.
package sim

import (
	"context"

	"clustersim/internal/engine"
	"clustersim/internal/workload"
)

// Setup is one steering configuration: a declarative spec and its label.
type Setup = engine.Setup

// RunOptions sizes one simulation.
type RunOptions = engine.RunOptions

// Result is the outcome of one (simpoint, setup) run.
type Result = engine.Result

// setup builds the Setup a spec literal describes. The resolver's error
// is dropped on purpose: a rejected spec (a negative count, say) still
// yields a Setup, and running it reports that error as the Result's Err.
func setup(spec engine.SetupSpec) Setup {
	s, _ := engine.NewSetup(spec)
	return s
}

// SetupKind returns the configuration of a kind that takes no field but
// the cluster count: "OP", "OP-nostall", "one-cluster", the policy
// survey's "ADV", "LC", "SLC" and "MOD", or the defaults of the rest.
func SetupKind(kind string, clusters int) Setup {
	return setup(engine.SetupSpec{Kind: kind, NumClusters: clusters})
}

// SetupOP returns the hardware-only occupancy-aware baseline.
func SetupOP(clusters int) Setup { return SetupKind("OP", clusters) }

// SetupOPNoStall returns the OP variant without stall-over-steer: a full
// preferred cluster always diverts. The ablation harness uses it to
// quantify the stalling heuristic of [15]/[24].
func SetupOPNoStall(clusters int) Setup { return SetupKind("OP-nostall", clusters) }

// SetupOneCluster returns the naive everything-to-cluster-0 configuration.
func SetupOneCluster(clusters int) Setup { return SetupKind("one-cluster", clusters) }

// SetupOB returns the SPDI operation-based software-only configuration.
func SetupOB(clusters int) Setup { return SetupKind("OB", clusters) }

// SetupRHOP returns the RHOP software-only configuration.
func SetupRHOP(clusters int) Setup { return SetupKind("RHOP", clusters) }

// SetupVC returns the paper's hybrid configuration with numVC virtual
// clusters on a machine with the given physical cluster count. The paper's
// VC(2→4) is SetupVC(2, 4).
func SetupVC(numVC, clusters int) Setup { return SetupVCChain(numVC, clusters, 0) }

// SetupVCComm returns the communication-aware extension of the hybrid
// mapper (the co-design direction of the paper's conclusion): leaders map
// by load plus an estimated copy penalty for the leader's operands.
func SetupVCComm(numVC, clusters int) Setup {
	return setup(engine.SetupSpec{Kind: "VC-comm", NumClusters: clusters, NumVC: numVC})
}

// SetupScoped returns OB/RHOP/VC variants with a capped compiler region
// size, for the compile-window ablation. kind is "OB", "RHOP" or "VC".
func SetupScoped(kind string, clusters, regionMaxOps int) Setup {
	return setup(engine.SetupSpec{Kind: kind, NumClusters: clusters, RegionMaxOps: regionMaxOps})
}

// SetupVCChain is SetupVC with an explicit chain-length cap (zero means the
// partitioner default); the chain-length ablation sweeps it.
func SetupVCChain(numVC, clusters, maxChainLen int) Setup {
	return setup(engine.SetupSpec{Kind: "VC", NumClusters: clusters, NumVC: numVC, MaxChainLen: maxChainLen})
}

// RunOne executes one simulation from scratch: clone, annotate, expand,
// run. It never serves from or populates caches — engine.Execute is the
// reference run path cached engine results are verified against.
func RunOne(sp *workload.Simpoint, setup Setup, opt RunOptions) *Result {
	return engine.Execute(context.Background(), engine.Job{Simpoint: sp, Setup: setup, Opts: opt})
}

// RunMatrix runs every (simpoint × setup) pair across a worker pool and
// returns results indexed as [simpoint][setup], matching the input order.
// Parallelism ≤ 0 means GOMAXPROCS. Each call uses a private engine, so
// annotated programs and traces are shared between the matrix's own cells
// but nothing persists across calls; share an explicit engine.Engine (or
// any engine.Runner) via RunMatrixOn to cache across invocations.
func RunMatrix(sps []*workload.Simpoint, setups []Setup, opt RunOptions, parallelism int) [][]*Result {
	eng := engine.New(engine.Options{Parallelism: parallelism})
	res, _ := eng.RunMatrix(context.Background(), sps, setups, opt)
	return res
}

// RunOneOn executes one simulation on any Runner — a shared local engine
// or a remote clusterd client — with cancellation.
func RunOneOn(ctx context.Context, r engine.Runner, sp *workload.Simpoint, setup Setup, opt RunOptions) *Result {
	return r.Run(ctx, engine.Job{Simpoint: sp, Setup: setup, Opts: opt})
}

// RunMatrixOn fans the (simpoint × setup) matrix through any Runner;
// results are indexed [simpoint][setup]. Where the simulations execute —
// this process or a clusterd fleet — is entirely the runner's concern.
func RunMatrixOn(ctx context.Context, r engine.Runner, sps []*workload.Simpoint, setups []Setup, opt RunOptions) ([][]*Result, error) {
	return engine.RunMatrixOn(ctx, r, sps, setups, opt)
}
