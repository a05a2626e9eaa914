// Runner is the execution seam of the system: everything above the engine
// (sim wrappers, the experiment harness, steerbench, examples) submits
// jobs through this interface, and everything below it decides *where*
// the simulation happens — in this process (*Engine) or on a clusterd
// fleet (client.Runner). Consumers written against Runner run unchanged
// on one core or across machines.
package engine

import (
	"context"

	"clustersim/internal/workload"
)

// Runner executes simulation jobs. Implementations must be safe for
// concurrent use; Run and Stream must honor context cancellation by
// returning Results with Err set rather than blocking forever.
//
// *Engine is the local implementation; package client provides a remote
// one that ships jobs to a clusterd instance as declarative JobSpecs.
type Runner interface {
	// Run executes one job and blocks until its result is available. A
	// canceled context yields a Result with Err set.
	Run(ctx context.Context, job Job) *Result
	// Stream submits the jobs and returns a channel yielding each result
	// as it completes (completion order, not submission order). The
	// channel is buffered to hold every result and closed once all jobs
	// finish, so consumers may stop reading early without leaking senders.
	Stream(ctx context.Context, jobs []Job) <-chan JobResult
	// Stats snapshots the runner's cache/execution counters. For remote
	// runners the counters cover work attributable to this runner, not
	// the server's lifetime.
	Stats() CacheStats
}

// RunMatrixOn fans every (simpoint × setup) pair through any Runner and
// returns results indexed as [simpoint][setup], matching the input order.
// It blocks until all jobs finish; on cancellation the remaining cells
// hold Results with Err set and the context's error is returned. This is
// the one matrix implementation — Engine.RunMatrix and the experiment
// harness both delegate here, so local and remote execution share the
// exact same fan-out.
func RunMatrixOn(ctx context.Context, r Runner, sps []*workload.Simpoint, setups []Setup, opt RunOptions) ([][]*Result, error) {
	jobs := make([]Job, 0, len(sps)*len(setups))
	for _, sp := range sps {
		for _, s := range setups {
			jobs = append(jobs, Job{Simpoint: sp, Setup: s, Opts: opt})
		}
	}
	results := make([][]*Result, len(sps))
	for i := range results {
		results[i] = make([]*Result, len(setups))
	}
	if len(setups) > 0 {
		for jr := range r.Stream(ctx, jobs) {
			results[jr.Index/len(setups)][jr.Index%len(setups)] = jr.Result
		}
	}
	return results, ctx.Err()
}

// Delta returns the counter changes from base to s — the per-invocation
// view of a shared runner's lifetime counters.
func (s CacheStats) Delta(base CacheStats) CacheStats {
	return CacheStats{
		Simulations:       s.Simulations - base.Simulations,
		ResultHits:        s.ResultHits - base.ResultHits,
		ResultMisses:      s.ResultMisses - base.ResultMisses,
		ProgramHits:       s.ProgramHits - base.ProgramHits,
		ProgramMisses:     s.ProgramMisses - base.ProgramMisses,
		StoreHits:         s.StoreHits - base.StoreHits,
		StoreMisses:       s.StoreMisses - base.StoreMisses,
		StoreErrors:       s.StoreErrors - base.StoreErrors,
		CorePoolHits:      s.CorePoolHits - base.CorePoolHits,
		CorePoolMisses:    s.CorePoolMisses - base.CorePoolMisses,
		InteractiveGrants: s.InteractiveGrants - base.InteractiveGrants,
		BulkGrants:        s.BulkGrants - base.BulkGrants,
		DeadlineShed:      s.DeadlineShed - base.DeadlineShed,
	}
}

// Add returns the field-wise sum of two stat snapshots (a hybrid runner
// aggregating its remote and local halves).
func (s CacheStats) Add(other CacheStats) CacheStats {
	return CacheStats{
		Simulations:       s.Simulations + other.Simulations,
		ResultHits:        s.ResultHits + other.ResultHits,
		ResultMisses:      s.ResultMisses + other.ResultMisses,
		ProgramHits:       s.ProgramHits + other.ProgramHits,
		ProgramMisses:     s.ProgramMisses + other.ProgramMisses,
		StoreHits:         s.StoreHits + other.StoreHits,
		StoreMisses:       s.StoreMisses + other.StoreMisses,
		StoreErrors:       s.StoreErrors + other.StoreErrors,
		CorePoolHits:      s.CorePoolHits + other.CorePoolHits,
		CorePoolMisses:    s.CorePoolMisses + other.CorePoolMisses,
		InteractiveGrants: s.InteractiveGrants + other.InteractiveGrants,
		BulkGrants:        s.BulkGrants + other.BulkGrants,
		DeadlineShed:      s.DeadlineShed + other.DeadlineShed,
	}
}
