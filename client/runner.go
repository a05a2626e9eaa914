// Runner adapts a Client to the engine.Runner interface: jobs are
// converted to declarative JobSpecs, shipped to clusterd in one batch per
// Stream call, and followed over SSE, whose completion events carry each
// full result encoded by the engine codec — one request per batch to
// submit and one stream to follow it, with no per-result fetch.
// Everything written against engine.Runner — sim.RunMatrixOn, the
// experiment harness, steerbench — therefore runs against a clusterd
// fleet unchanged.
package client

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"clustersim/internal/api"
	"clustersim/internal/engine"
	"clustersim/internal/obs"
	"clustersim/internal/sim"
)

// Runner executes engine jobs on a remote clusterd instance. Jobs with no
// declarative wire form (non-suite workloads, histogram runs, setups or
// machine overrides that do not resolve) fail at once with the conversion
// error; Hybrid routes them to a local runner instead. Safe for
// concurrent use.
type Runner struct {
	c      *Client
	tracer *obs.Tracer

	baseOnce sync.Once
	baseline engine.CacheStats // server counters when this runner first ran
}

// JobError is a job-level failure the server reported in a completion
// event: the worker was reachable and executed (or refused) the job, and
// the failure is deterministic — resubmitting the job elsewhere would
// fail identically. Transport failures are never JobErrors, which is how
// multi-worker runners tell a lost worker from a genuinely failing job.
type JobError struct {
	// Message is the server-reported failure text.
	Message string
}

// Error implements the error interface.
func (e *JobError) Error() string { return "clusterd: " + e.Message }

// RunnerOption configures a Runner.
type RunnerOption func(*Runner)

// WithRunnerTracer records one client-side flight per remote batch
// (spans: submit and stream) into t, under the
// same trace-ID base the server derives per-job IDs from — so a
// steerbench -trace-out timeline lines the client's view up against
// the workers' span trees.
func WithRunnerTracer(t *obs.Tracer) RunnerOption {
	return func(r *Runner) { r.tracer = t }
}

// NewRunner wraps a Client as an engine.Runner.
func NewRunner(c *Client, opts ...RunnerOption) *Runner {
	r := &Runner{c: c}
	for _, o := range opts {
		o(r)
	}
	return r
}

var _ engine.Runner = (*Runner)(nil)

// captureBaseline snapshots the server's lifetime counters the first time
// the runner does work, so Stats can report this runner's share.
func (r *Runner) captureBaseline(ctx context.Context) {
	r.baseOnce.Do(func() {
		if st, err := r.c.Stats(ctx); err == nil {
			r.baseline = st.Engine
		}
	})
}

// Run executes one job and blocks until its result is available.
func (r *Runner) Run(ctx context.Context, job engine.Job) *engine.Result {
	for jr := range r.Stream(ctx, []engine.Job{job}) {
		return jr.Result
	}
	// Unreachable: Stream always yields one result per job.
	return &engine.Result{Simpoint: job.Simpoint, Setup: job.Setup.Label,
		Err: errors.New("client: stream yielded no result")}
}

// Stream submits the jobs and returns a channel yielding each result as
// it completes. Jobs with a wire form travel as one batch submission; the
// rest fail at once with the conversion error. The channel is buffered to
// hold every result and closed once all jobs finish.
func (r *Runner) Stream(ctx context.Context, jobs []engine.Job) <-chan engine.JobResult {
	out := make(chan engine.JobResult, len(jobs))
	go func() {
		defer close(out)
		r.captureBaseline(ctx)

		var specs []engine.JobSpec
		var remoteIdx []int
		for i, job := range jobs {
			spec, err := sim.SpecFromJob(job)
			if err != nil {
				out <- engine.JobResult{Index: i, Job: job, Result: &engine.Result{
					Simpoint: job.Simpoint, Setup: job.Setup.Label,
					Err: fmt.Errorf("client: job has no wire form: %w", err),
				}}
				continue
			}
			specs = append(specs, spec)
			remoteIdx = append(remoteIdx, i)
		}
		if len(specs) > 0 {
			r.streamRemote(ctx, jobs, specs, remoteIdx, out)
		}
	}()
	return out
}

// streamRemote runs one batch submission end-to-end: submit, then follow
// the SSE stream, decoding each completed job's result from its event.
// Jobs whose events never arrive (stream failure, cancellation) are
// reported with the stream's error so every submitted job yields exactly
// one result.
func (r *Runner) streamRemote(ctx context.Context, jobs []engine.Job, specs []engine.JobSpec, remoteIdx []int, out chan<- engine.JobResult) {
	fail := func(err error) {
		for _, idx := range remoteIdx {
			out <- engine.JobResult{Index: idx, Job: jobs[idx], Result: &engine.Result{
				Simpoint: jobs[idx].Simpoint, Setup: jobs[idx].Setup.Label, Err: err,
			}}
		}
	}
	// Propagate the caller's trace ID as the batch's base when the
	// context carries one, else mint a fresh base, so the server's
	// per-job IDs ("<base>.<index>") are known here up front.
	base := obs.TraceIDFrom(ctx)
	if !obs.ValidTraceID(base) {
		base = obs.NewTraceID()
	}
	fl := r.tracer.StartFlight(obs.WithTraceID(ctx, base), fmt.Sprintf("batch[%d]", len(specs)))
	defer fl.End()
	t0 := fl.Begin()
	sub, err := r.c.Submit(ctx, specs, WithTraceBase(base))
	fl.Span("submit", t0)
	if err != nil {
		fail(err)
		return
	}
	if sub.Total != len(specs) || len(sub.Keys) != len(specs) {
		fail(fmt.Errorf("client: server accepted %d of %d jobs", sub.Total, len(specs)))
		return
	}

	// out holds a slot for every job, so the callback never blocks the
	// stream.
	arrived := make([]bool, len(specs))
	t0 = fl.Begin()
	streamErr := r.c.Stream(ctx, sub.ID, func(ev api.JobEvent) {
		if ev.Index < 0 || ev.Index >= len(specs) || arrived[ev.Index] {
			return // defensive: out-of-range or duplicate event
		}
		arrived[ev.Index] = true
		idx := remoteIdx[ev.Index]
		out <- engine.JobResult{Index: idx, Job: jobs[idx], Result: eventResult(jobs[idx], ev)}
	})
	fl.Span("stream", t0)
	if streamErr == nil {
		streamErr = errors.New("client: stream completed with missing results")
	}
	for i, ok := range arrived {
		if ok {
			continue
		}
		idx := remoteIdx[i]
		out <- engine.JobResult{Index: idx, Job: jobs[idx], Result: &engine.Result{
			Simpoint: jobs[idx].Simpoint, Setup: jobs[idx].Setup.Label, Err: streamErr,
		}}
	}
}

// eventResult turns one completion event into a full result: failures
// surface as JobError results, successes are decoded from the event's
// encoded result and re-bound to the submitting job's simpoint so result
// rows match the local suite. A success event without a decodable result
// is a protocol error, never a JobError.
func eventResult(job engine.Job, ev api.JobEvent) *engine.Result {
	if ev.Error != "" {
		return &engine.Result{Simpoint: job.Simpoint, Setup: job.Setup.Label,
			Err: &JobError{Message: ev.Error}}
	}
	if len(ev.Result) == 0 {
		return &engine.Result{Simpoint: job.Simpoint, Setup: job.Setup.Label,
			Err: errors.New("client: server reported success but sent no result")}
	}
	res, err := engine.DecodeResult(ev.Result)
	if err != nil {
		return &engine.Result{Simpoint: job.Simpoint, Setup: job.Setup.Label,
			Err: fmt.Errorf("client: %w", err)}
	}
	res.Simpoint = job.Simpoint
	return res
}

// Stats reports the work attributable to this runner: the server's
// counter deltas since the runner first submitted. A stats fetch failure
// degrades to zero counters.
func (r *Runner) Stats() engine.CacheStats {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// The Once both sets the baseline for a runner that never ran (delta
	// 0, correctly "no work attributable") and orders this read of
	// r.baseline after a concurrent Stream's write.
	r.captureBaseline(ctx)
	st, err := r.c.Stats(ctx)
	if err != nil {
		return engine.CacheStats{}
	}
	return st.Engine.Delta(r.baseline)
}
