// Package engine is the shared simulation substrate every run path —
// sim.RunOne/RunMatrix, the experiment harness and cmd/steerbench — submits
// jobs to. It owns a cancellable worker pool and
// two content-keyed single-flight caches: annotated program clones (keyed
// by simpoint + compiler-pass signature, bounded at maxPrograms entries)
// and whole Results (keyed by simpoint + configuration + run options,
// bounded at maxResults entries). One engine shared across experiments
// therefore simulates each unique (simpoint, setup, options) combination
// once while its result stays among the maxResults most recently used,
// or in the result store; a full paper regeneration never evicts. Dynamic
// traces are not cached: each run expands its own, because expansion is
// deterministic and cheaper than restoring any stored form of the trace.
//
// All cached artifacts are immutable after publication: compiler passes
// annotate a private clone before it enters the cache, and the pipeline
// only reads from programs, so concurrent runs can share them.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"clustersim/internal/obs"
	"clustersim/internal/pipeline"
	"clustersim/internal/prog"
	"clustersim/internal/steer"
	"clustersim/internal/store"
	"clustersim/internal/trace"
	"clustersim/internal/workload"
)

// RunOptions sizes one simulation.
type RunOptions struct {
	// NumUops is the dynamic trace length per simpoint. Zero means 120000.
	NumUops int
	// WarmupUops excludes the first N committed micro-ops from the
	// metrics (cache/predictor warmup).
	WarmupUops int
	// Machine overrides the Table 2 machine (ablations); the zero value
	// runs the Table 2 machine. A result is keyed by the override's
	// canonical form, so an override that resolves to the Table 2 machine
	// shares its results.
	Machine MachineSpec
	// TrackHistograms collects per-cycle occupancy histograms
	// (Metrics.Histograms). It is part of the result key, and such runs
	// are never persisted: the result codec does not carry histograms.
	TrackHistograms bool
}

func (o RunOptions) withDefaults() RunOptions {
	if o.NumUops == 0 {
		o.NumUops = 120_000
	}
	return o
}

// Result is the outcome of one (simpoint, setup) run.
type Result struct {
	// Simpoint identifies the workload.
	Simpoint *workload.Simpoint
	// Setup is the configuration label.
	Setup string
	// Metrics are the pipeline metrics. Cached results share one Metrics
	// value across callers; treat it as read-only.
	Metrics *pipeline.Metrics
	// Complexity is the steering-logic accounting.
	Complexity steer.Complexity
	// Err is non-nil if the run failed or was canceled.
	Err error
}

// Job is one unit of work: simulate one simpoint under one setup.
type Job struct {
	Simpoint *workload.Simpoint
	Setup    Setup
	Opts     RunOptions
}

// JobResult pairs a streamed result with the job that produced it.
type JobResult struct {
	// Index is the job's position in the submitted slice.
	Index  int
	Job    Job
	Result *Result
}

// Options configures an engine.
type Options struct {
	// Parallelism bounds concurrently executing simulations; ≤ 0 means
	// GOMAXPROCS. Cache hits are served without occupying a worker slot.
	Parallelism int
	// ResultStore, if set, persists whole results behind the in-memory
	// result cache: misses consult the store before simulating, and every
	// newly computed cacheable result is encoded and written through, so
	// a later engine — or a later process, with a disk-backed store —
	// skips the work entirely. Blobs are framed by the codec's schema
	// version; stale or corrupt entries read as misses.
	ResultStore store.Store
	// DisableCache turns every cache off (each job re-annotates and
	// re-simulates from scratch), including ResultStore and the core pool.
	DisableCache bool
	// Tracer, if set, records a per-stage span trace (queue wait,
	// annotate, expand, execute, encode, store put/get, cache-hit
	// short-circuits) for every job into a bounded ring of flight
	// records, queryable by trace ID. Nil disables tracing at zero cost:
	// every recording site is a nil-flight no-op.
	Tracer *obs.Tracer
}

// Engine is a caching, streaming simulation engine — the local Runner
// implementation. One engine may be shared by any number of concurrent
// submitters; all methods are safe for concurrent use.
type Engine struct {
	opts Options
	// sched grants worker slots weighted-fair across priority lanes
	// (see Lane); under contention interactive jobs overtake a bulk
	// backlog instead of draining FIFO behind it.
	sched *scheduler

	progs   *flightCache[*prog.Program]
	results *flightCache[*Result]

	// idle pools idle pipeline cores in release order, oldest first. At
	// most Parallelism cores idle in total (more can never be in use at
	// once), whatever their shapes: a release past the bound drops the
	// least recently released core. A sweep of same-shaped jobs reuses a
	// handful of cores via Reset instead of constructing one per job.
	// Disabled together with the caches.
	coresMu sync.Mutex
	idle    []*pipeline.Core

	simulations                         atomic.Int64
	storeHits, storeMisses, storeErrors atomic.Int64
	corePoolHits, corePoolMisses        atomic.Int64
	deadlineShed                        atomic.Int64
}

// maxPrograms bounds the annotated-program cache. Every distinct pass
// signature (a client-chosen region size or chain length mints a new one)
// is a new key, so the cache must evict; a full `steerbench -exp all`
// annotates 1,160 distinct programs, so regeneration never does. At about
// 22 KiB per annotated clone the bound caps the cache near 45 MiB.
const maxPrograms = 2048

// maxResults bounds the whole-result cache. The run options (uop count,
// machine override) are client-chosen, so every new combination is a new
// key and the cache must evict; a full `steerbench -exp all` makes 2,400
// simulations, so regeneration never does. An evicted result is served
// again from the result store, when one is configured, or re-simulated.
const maxResults = 8192

// CacheStats is a snapshot of the engine's cache counters.
type CacheStats struct {
	// Simulations counts actual pipeline executions (cache misses).
	Simulations int64
	// ResultHits/ResultMisses count whole-result cache lookups.
	ResultHits, ResultMisses int64
	// Deprecated: always 0; the trace cache was removed. Kept only because perfbench/ reads it.
	TraceHits int64 `json:"-"`
	// Deprecated: always 0; the trace cache was removed. Kept only because perfbench/ reads it.
	TraceMisses int64 `json:"-"`
	// ProgramHits/ProgramMisses count annotated-program cache lookups.
	ProgramHits, ProgramMisses int64
	// StoreHits/StoreMisses count persistent result-store lookups (only
	// performed on in-memory result-cache misses); StoreErrors counts
	// blobs that failed to decode or encode.
	StoreHits, StoreMisses, StoreErrors int64
	// Deprecated: always 0; the trace cache was removed. Kept only because perfbench/ reads it.
	TraceBytesHighWater int64 `json:"-"`
	// CorePoolHits counts simulations served by a pooled, Reset core;
	// CorePoolMisses counts fresh core constructions on the cached path.
	CorePoolHits, CorePoolMisses int64
	// Deprecated: always 0; the trace cache was removed. Kept only because perfbench/ reads it.
	TraceUnpacks int64 `json:"-"`
	// InteractiveGrants/BulkGrants count worker-slot acquisitions per
	// scheduling lane (see Lane); their ratio under sustained contention
	// approaches the configured lane weights.
	InteractiveGrants, BulkGrants int64
	// DeadlineShed counts jobs dropped because their deadline had
	// already expired when they would have started executing — shed
	// work, not failed work.
	DeadlineShed int64
}

// New builds an engine.
func New(opts Options) *Engine {
	if opts.Parallelism <= 0 {
		opts.Parallelism = runtime.GOMAXPROCS(0)
	}
	return &Engine{
		opts:    opts,
		sched:   newScheduler(opts.Parallelism),
		progs:   newFlightCache[*prog.Program](maxPrograms),
		results: newFlightCache[*Result](maxResults),
	}
}

// Parallelism reports the engine's worker-pool size (the resolved value,
// never zero).
func (e *Engine) Parallelism() int { return e.opts.Parallelism }

// Tracer returns the engine's flight tracer (nil when tracing is
// disabled). Services use it to serve GET /v1/trace/{id} and the
// per-stage histogram families.
func (e *Engine) Tracer() *obs.Tracer { return e.opts.Tracer }

// Stats snapshots the cache counters.
func (e *Engine) Stats() CacheStats {
	s := CacheStats{
		Simulations:    e.simulations.Load(),
		ResultHits:     e.results.hits.Load(),
		ResultMisses:   e.results.misses.Load(),
		ProgramHits:    e.progs.hits.Load(),
		ProgramMisses:  e.progs.misses.Load(),
		StoreHits:      e.storeHits.Load(),
		StoreMisses:    e.storeMisses.Load(),
		StoreErrors:    e.storeErrors.Load(),
		CorePoolHits:   e.corePoolHits.Load(),
		CorePoolMisses: e.corePoolMisses.Load(),
		DeadlineShed:   e.deadlineShed.Load(),
	}
	s.InteractiveGrants, s.BulkGrants = e.sched.laneGrants()
	return s
}

// Execute runs one job from scratch with no caching and no shared pool —
// the plain sim.RunOne path, and the reference the engine's cached results
// are tested against.
func Execute(ctx context.Context, job Job) *Result {
	return New(Options{Parallelism: 1, DisableCache: true}).Run(ctx, job)
}

// Run executes one job, serving it from the result cache when possible,
// and blocks until the result is available. A canceled context yields a
// Result with Err set to the context's error; canceled or failed runs are
// never cached.
func (e *Engine) Run(ctx context.Context, job Job) *Result {
	job.Opts = job.Opts.withDefaults()
	// One flight per submission, even for cache hits: the flight's span
	// set is what distinguishes a computed result (execute span) from a
	// served one (cache_hit / store_get spans). The trace ID rides in on
	// the context; End publishes the record for /v1/trace/{id}.
	fl := e.opts.Tracer.StartFlight(ctx, job.Simpoint.Name+"/"+job.Setup.Label)
	res := e.run(ctx, job, fl)
	fl.End()
	return res
}

// RunMatrix runs every (simpoint × setup) pair and returns results indexed
// as [simpoint][setup], matching the input order. It blocks until all jobs
// finish; on cancellation the remaining cells hold Results with Err set
// and the context's error is returned.
func (e *Engine) RunMatrix(ctx context.Context, sps []*workload.Simpoint, setups []Setup, opt RunOptions) ([][]*Result, error) {
	return RunMatrixOn(ctx, e, sps, setups, opt)
}

// Stream submits the jobs and returns a channel that yields each result as
// it completes (in completion order, not submission order). The channel is
// buffered to hold every result and is closed once all jobs finish, so a
// consumer may stop reading early without leaking the senders (cancel the
// context to also stop the remaining work). When ctx carries a trace ID,
// it is the batch's base and job i is traced as obs.JobTraceID(base, i);
// otherwise every job mints its own.
func (e *Engine) Stream(ctx context.Context, jobs []Job) <-chan JobResult {
	out := make(chan JobResult, len(jobs))
	base := obs.TraceIDFrom(ctx)
	go func() {
		defer close(out)
		var wg sync.WaitGroup
		for i := range jobs {
			i := i
			jctx := ctx
			if base != "" {
				jctx = obs.WithTraceID(ctx, obs.JobTraceID(base, i))
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				out <- JobResult{Index: i, Job: jobs[i], Result: e.Run(jctx, jobs[i])}
			}()
		}
		wg.Wait()
	}()
	return out
}

// storePrefix namespaces result keys for persistent stores: the codec
// schema version is folded in so that blobs written by an older codec
// never even key-collide with the current one.
var storePrefix = "result|v" + strconv.Itoa(CodecVersion) + "|"

// appendFingerprint appends the identity of a simpoint's program content
// across suite reconstructions, "name|s<seed>|h<content hash, 16 hex
// digits>" (workload.Suite synthesizes fresh Program values per call,
// deterministically, so name + seed + content hash is a stable key that
// also keeps distinct custom programs from aliasing).
func appendFingerprint(b []byte, sp *workload.Simpoint) []byte {
	b = append(strconv.AppendInt(append(append(b, sp.Name...), "|s"...), sp.Seed, 10), "|h"...)
	for fp, shift := sp.Program.Fingerprint(), 60; shift >= 0; shift -= 4 {
		b = append(b, "0123456789abcdef"[fp>>shift&0xf])
	}
	return b
}

// appendNum appends a key field: its tag, then v in decimal.
func appendNum(b []byte, tag string, v int) []byte {
	return strconv.AppendInt(append(b, tag...), int64(v), 10)
}

// machine resolves the machine a job runs on: the Table 2 machine of the
// setup's cluster count with the run options and the machine override
// applied. It returns the key suffix naming that machine, "" for the
// Table 2 machine without histograms, or the override's validation error.
func machine(clusters int, opt *RunOptions) (pipeline.Config, string, error) {
	cfg := pipeline.DefaultConfig(clusters)
	cfg.WarmupUops = int64(opt.WarmupUops)
	cfg.TrackHistograms = opt.TrackHistograms
	key, err := applyMachine(&cfg, &opt.Machine)
	if opt.TrackHistograms {
		key += "|h"
	}
	return cfg, key, err
}

// resolveJob is the one resolver of a job: it returns the job's setup
// resolution (NewSetup's memo while it is current) and the key suffix
// naming its machine, or why the job cannot run: a setup that does not
// resolve, a negative run size, or a machine override out of bounds.
func resolveJob(job *Job) (resolved, string, error) {
	rs := job.Setup.memo
	var err error
	if rs.kind == nil || rs.spec != job.Setup.SetupSpec {
		if rs, err = resolve(job.Setup.SetupSpec); err != nil {
			return rs, "", err
		}
	}
	if job.Opts.NumUops < 0 || job.Opts.WarmupUops < 0 {
		return rs, "", fmt.Errorf("engine: negative num_uops %d or warmup_uops %d", job.Opts.NumUops, job.Opts.WarmupUops)
	}
	// A job on the Table 2 machine pays only this comparison; any other
	// machine appends the canonical override's suffix, so its machine-
	// derived pass options are keyed too.
	var m string
	if job.Opts.Machine != (MachineSpec{}) || job.Opts.TrackHistograms {
		_, m, err = machine(rs.clusters, &job.Opts)
	}
	return rs, m, err
}

// Validate reports why the job cannot run, or nil: its setup does not
// resolve, a run size is negative, or a machine knob is out of bounds.
func (job Job) Validate() error {
	_, _, err := resolveJob(&job)
	return err
}

// resultKey returns the key of a job that resolved to rs on the machine
// m names: its persistent-store key, which also keys the in-memory
// result cache. The pass's static signature is folded in so label
// collisions between setups with different compiler passes cannot
// alias. The "t" field once carried a hand-written tweak name; it stays
// so Table 2 keys keep their bytes and existing stores stay warm.
func resultKey(job *Job, rs *resolved, m string) string {
	b := appendFingerprint(append(make([]byte, 0, 192), storePrefix...), job.Simpoint)
	b = appendNum(append(append(append(append(b, '|'), rs.label...), "|p"...), rs.sig...), "|c", rs.clusters)
	b = appendNum(appendNum(b, "|u", job.Opts.NumUops), "|w", job.Opts.WarmupUops)
	return string(append(append(b, "|t"...), m...))
}

// ResultKey returns the persistent-store key a job's result is (or would
// be) stored under, and whether it has one: the job validates, and it
// does not track histograms (such runs are never persisted). It depends
// on the job alone, not on any engine: services use it to hand clients a
// fetch address at submission time, and fleets to shard jobs by key.
func ResultKey(job Job) (string, bool) {
	job.Opts = job.Opts.withDefaults()
	rs, m, err := resolveJob(&job)
	if err != nil || job.Opts.TrackHistograms {
		return "", false
	}
	return resultKey(&job, &rs, m), true
}

// ResultKey is the package-level ResultKey as a method. It stays for the
// benchmark harness (perfbench/), which keys results through an engine
// it holds.
func (e *Engine) ResultKey(job Job) (string, bool) { return ResultKey(job) }

// storedResult serves a result-cache miss from the persistent store, if
// one is configured and holds a decodable blob for the key. The decoded
// result carries identity-only simpoint data, so the submitting job's
// simpoint is attached before the result enters the in-memory cache.
func (e *Engine) storedResult(key string, job Job, fl *obs.Flight) *Result {
	if e.opts.ResultStore == nil {
		return nil
	}
	t0 := fl.Begin()
	blob, ok := e.opts.ResultStore.Get(key)
	if !ok {
		e.storeMisses.Add(1)
		return nil
	}
	res, err := DecodeResult(blob)
	if err != nil {
		// Stale schema or corrupt blob: treat as a miss and re-simulate;
		// the re-Put after the run overwrites the bad record, healing the
		// slot for future processes.
		e.storeErrors.Add(1)
		e.storeMisses.Add(1)
		return nil
	}
	fl.Span("store_get", t0)
	e.storeHits.Add(1)
	res.Simpoint = job.Simpoint
	return res
}

// persistResult writes a freshly computed result through to the
// persistent store, best-effort.
func (e *Engine) persistResult(key string, res *Result, fl *obs.Flight) {
	if e.opts.ResultStore == nil {
		return
	}
	t0 := fl.Begin()
	blob, err := EncodeResult(res)
	if err != nil {
		e.storeErrors.Add(1)
		return
	}
	fl.Span("encode", t0)
	t0 = fl.Begin()
	e.opts.ResultStore.Put(key, blob)
	fl.Span("store_put", t0)
}

// isCancelErr reports whether err stems from context cancellation rather
// than a deterministic simulation failure.
func isCancelErr(err error) bool {
	return errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, pipeline.ErrCanceled)
}

// shed counts a job dropped before execution because its deadline had
// already expired, and returns err unchanged; cancellations and other
// errors pass through uncounted.
func (e *Engine) shed(err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		e.deadlineShed.Add(1)
	}
	return err
}

func (e *Engine) run(ctx context.Context, job Job, fl *obs.Flight) *Result {
	if err := ctx.Err(); err != nil {
		return &Result{Simpoint: job.Simpoint, Setup: job.Setup.Label, Err: e.shed(err)}
	}
	rs, m, err := resolveJob(&job)
	if err != nil {
		return &Result{Simpoint: job.Simpoint, Setup: job.Setup.Label, Err: err}
	}
	// Results carry the label the spec derives, whatever the caller's
	// Label field says: it is part of the cache key.
	job.Setup.Label = rs.label
	key := resultKey(&job, &rs, m)
	if e.opts.DisableCache {
		return e.execute(ctx, job, &rs, fl)
	}
	// Histogram runs stay in memory: the store's codec refuses them.
	persist := !job.Opts.TrackHistograms
	for {
		// The compute closure runs on exactly one caller's goroutine, so
		// the spans it records (store_get / execute / encode / store_put)
		// land on that caller's flight; joiners record only the cache_hit
		// wait below.
		waitStart := fl.Begin()
		res, hit, aborted := e.results.get(ctx.Done(), key, func() (*Result, bool) {
			if persist {
				if r := e.storedResult(key, job, fl); r != nil {
					return r, true
				}
			}
			r := e.execute(ctx, job, &rs, fl)
			if r.Err == nil && persist {
				e.persistResult(key, r, fl)
			}
			return r, r.Err == nil
		})
		if hit {
			fl.Span("cache_hit", waitStart)
		}
		if aborted {
			// Our context died while waiting on another caller's flight.
			return &Result{Simpoint: job.Simpoint, Setup: job.Setup.Label, Err: ctx.Err()}
		}
		if res == nil {
			// We joined a flight whose computation panicked (the zero
			// value was handed to waiters). Recompute under our context.
			if err := ctx.Err(); err != nil {
				return &Result{Simpoint: job.Simpoint, Setup: job.Setup.Label, Err: err}
			}
			continue
		}
		if hit && ctx.Err() == nil && isCancelErr(res.Err) {
			// We waited on another caller's flight and it was canceled
			// under *their* context. Ours is live and the canceled entry
			// was not retained, so run the job ourselves. Genuine run
			// errors are returned as-is — they are deterministic and
			// re-executing them would fail identically.
			continue
		}
		if hit && res.Simpoint != job.Simpoint {
			// Same content, different suite instantiation: hand the caller
			// its own simpoint pointer so result rows match the submitted
			// suite.
			clone := *res
			clone.Simpoint = job.Simpoint
			return &clone
		}
		return res
	}
}

// execute performs one full uncached run of a job whose setup resolved
// to rs: annotate (cached), expand, simulate. The lane scheduler bounds
// concurrent executions at Parallelism and grants contended slots
// weighted-fair; the lane rides in on the context and never reaches a
// cache key.
func (e *Engine) execute(ctx context.Context, job Job, rs *resolved, fl *obs.Flight) *Result {
	t0 := fl.Begin()
	if err := e.sched.Acquire(ctx, LaneFrom(ctx)); err != nil {
		// Canceled or expired while queued behind busy workers: don't
		// wait for a slot.
		return &Result{Simpoint: job.Simpoint, Setup: job.Setup.Label, Err: e.shed(err)}
	}
	fl.Span("queue", t0)
	defer e.sched.Release()
	if err := ctx.Err(); err != nil {
		// The deadline (or a cancel) landed between the grant and the
		// run: shed before simulating, releasing the slot untouched.
		return &Result{Simpoint: job.Simpoint, Setup: job.Setup.Label, Err: e.shed(err)}
	}
	sp, opt := job.Simpoint, job.Opts

	cfg, _, err := machine(rs.clusters, &opt)
	if err != nil {
		return &Result{Simpoint: sp, Setup: rs.label, Err: err}
	}
	t0 = fl.Begin()
	p := e.annotated(sp, rs, &cfg)
	fl.Span("annotate", t0)
	t0 = fl.Begin()
	tr := trace.Expand(p, trace.Options{NumUops: opt.NumUops, Seed: sp.Seed})
	fl.Span("expand", t0)

	cfg.Cancel = ctx.Done()
	pol := rs.policy(*rs)
	core, err := e.acquireCore(cfg, pol, tr)
	if err != nil {
		return &Result{Simpoint: sp, Setup: rs.label, Err: err}
	}
	e.simulations.Add(1)
	t0 = fl.Begin()
	m, err := core.Run()
	fl.Span("execute", t0)
	if err == pipeline.ErrCanceled && ctx.Err() != nil {
		err = ctx.Err()
	}
	res := &Result{
		Simpoint:   sp,
		Setup:      rs.label,
		Metrics:    m,
		Complexity: core.ComplexityOf(),
		Err:        err,
	}
	e.releaseCore(core)
	return res
}

// acquireCore returns a core ready to run the job: a pooled core of the
// same config shape, rewound via Reset, when one is idle; a freshly
// constructed one otherwise. With caching disabled every job constructs
// fresh — that keeps Execute the pristine reference the pooled path is
// tested against.
func (e *Engine) acquireCore(cfg pipeline.Config, pol steer.Policy, tr *trace.Trace) (*pipeline.Core, error) {
	if e.opts.DisableCache {
		return pipeline.NewCore(cfg, pol, tr)
	}
	shape := cfg.Shape()
	var core *pipeline.Core
	e.coresMu.Lock()
	for i := len(e.idle) - 1; i >= 0; i-- {
		if e.idle[i].Shape() == shape {
			core = e.idle[i]
			e.idle = slices.Delete(e.idle, i, i+1)
			break
		}
	}
	e.coresMu.Unlock()
	if core != nil {
		if err := core.Reset(cfg, pol, tr); err == nil {
			e.corePoolHits.Add(1)
			return core, nil
		}
		// Reset refused (invalid config): drop the core and let NewCore
		// report the same validation error.
	}
	e.corePoolMisses.Add(1)
	return pipeline.NewCore(cfg, pol, tr)
}

// releaseCore parks an idle core for reuse, dropping its trace/policy
// references first. Idle cores are bounded by Parallelism in total —
// more can never be running at once — so past the bound the least
// recently released core, likely of a shape the workload moved away
// from, is dropped.
func (e *Engine) releaseCore(core *pipeline.Core) {
	if e.opts.DisableCache {
		return
	}
	core.Release()
	e.coresMu.Lock()
	defer e.coresMu.Unlock()
	e.idle = append(e.idle, core)
	if len(e.idle) > e.opts.Parallelism {
		e.idle = slices.Delete(e.idle, 0, 1)
	}
}

// annotated returns the annotated program clone for a setup resolved to
// rs, cached by (simpoint, pass signature).
func (e *Engine) annotated(sp *workload.Simpoint, rs *resolved, cfg *pipeline.Config) *prog.Program {
	build := func() (*prog.Program, bool) {
		p := sp.Program.Clone()
		p.ClearAnnotations()
		if rs.pass != nil {
			rs.pass.run(p, rs.passOptions(cfg))
		}
		return p, true
	}
	if e.opts.DisableCache {
		p, _ := build()
		return p
	}
	p, _, _ := e.progs.get(nil, rs.programKey(sp, cfg), build)
	return p
}
