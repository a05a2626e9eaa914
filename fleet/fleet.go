// Package fleet fans simulation batches out across N clusterd workers.
// Runner satisfies engine.Runner — the same seam the local engine and the
// single-host client runner implement — so everything written against it
// (sim.RunMatrixOn, the experiment harness, steerbench) scales from one
// process to a whole fleet by swapping the runner.
//
// Jobs are sharded by a consistent hash of their result content key: the
// same key always lands on the same worker, so each worker's tiered
// result store stays hot across runs and across clients, and resizing
// the fleet migrates only the key range adjacent to the new or removed
// worker. Each shard travels through that worker's client.Runner (one
// batch submission, SSE streaming with reconnect/backoff, fetch by key);
// the per-worker streams are merged into a single exactly-once result
// stream.
//
// All members share one HTTP transport (client.DefaultTransport, whose
// per-host idle pool is sized for serving-tier concurrency) unless
// WithClientOptions substitutes another, so concurrent batches reuse warm
// connections per worker instead of redialing under the stock transport's
// 2-idle-connections-per-host limit.
//
// Resilience is layered on top of the client's reconnect machinery:
// every worker is health-checked at construction, and from then on each
// member carries one circuit (health.go) that this runner keeps to
// itself. A job re-runs in exactly two ways. A worker-loss failure on a
// member whose circuit stays closed retries on that member, where the
// job's result will be cached. A worker whose transport fails for good
// mid-stream and whose liveness probe fails too is routed around at
// once; its unfinished jobs wait for the round's other shards to finish,
// then re-shard by the ring onto their ring successors (deterministic
// job failures are never retried). One that still answers but keeps
// failing is routed around after a few consecutive failures. After the
// WithReadmit cooldown, a half-open /healthz probe plus one probe shard
// re-admits it onto its exact old ring points.
//
// Planned membership changes are shared, health is not (see
// lifecycle.go): Drain migrates a departing worker's key range to its
// ring successors before removing it, AddWorker backfills a newcomer's
// stolen ranges from the previous owners, and WithCoordinator makes N
// concurrent runners converge on one membership view through a shared
// epoch register that holds only those add/drain/remove transitions.
// Placement is a pure function of the membership view and the circuits:
// the ring's points depend only on member URLs, and members that are
// removed or whose circuit is open are skipped by the clockwise walk —
// which is exactly equivalent to a ring without their points, so every
// change except adding a brand-new URL moves placement without
// rebuilding anything.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"clustersim/client"
	"clustersim/fleet/controlplane"
	"clustersim/internal/api"
	"clustersim/internal/engine"
	"clustersim/internal/sim"
)

// member is one clusterd worker: its transport, its runner, and this
// runner's circuit for it.
type member struct {
	url    string
	c      *client.Client
	runner *client.Runner
	h      *health
}

// config collects construction options.
type config struct {
	logf          func(format string, args ...any)
	token         string
	healthTimeout time.Duration
	clientOpts    []client.Option
	runnerOpts    []client.RunnerOption
	coordURL      string
	cooldown      time.Duration
}

// Option configures a fleet Runner.
type Option func(*config)

// WithLog sets the sink for operational messages — worker loss,
// retries, re-sharding, re-admission, membership transitions. The
// default discards them.
func WithLog(fn func(format string, args ...any)) Option {
	return func(c *config) { c.logf = fn }
}

// WithToken attaches a bearer token to every worker's requests (the
// credential clusterd -token requires).
func WithToken(token string) Option {
	return func(c *config) { c.token = token }
}

// WithHealthTimeout bounds the construction-time health check of the
// whole fleet (default 10s).
func WithHealthTimeout(d time.Duration) Option {
	return func(c *config) { c.healthTimeout = d }
}

// WithClientOptions passes extra options (backoff windows, retry budget,
// HTTP client) to every member's underlying client.
func WithClientOptions(opts ...client.Option) Option {
	return func(c *config) { c.clientOpts = append(c.clientOpts, opts...) }
}

// WithRunnerOptions passes extra options (a tracer) to every
// member's per-worker runner — including workers admitted after
// construction.
func WithRunnerOptions(opts ...client.RunnerOption) Option {
	return func(c *config) { c.runnerOpts = append(c.runnerOpts, opts...) }
}

// WithCoordinator points the runner at a clusterd running in
// -coordinator mode. Membership transitions are compare-and-swapped
// through the coordinator's epoch register instead of applied locally,
// and the view is re-synced before every batch, so N concurrent runners
// sharing a coordinator converge on the same placement at the same
// epoch. A fresh (empty) coordinator is seeded with this runner's
// worker list.
func WithCoordinator(url string) Option {
	return func(c *config) { c.coordURL = strings.TrimRight(url, "/") }
}

// WithReadmit sets the circuit cooldown: how long a worker whose circuit
// opened — lost, or failing while it still answers — is routed around
// before a half-open /healthz probe plus one probe shard may re-admit it
// onto its exact pre-failure ring points. Zero or unset means 5s.
func WithReadmit(cooldown time.Duration) Option {
	return func(c *config) { c.cooldown = cooldown }
}

// placement is one consistent snapshot of the routable fleet: the member
// slice and the ring built over exactly those members' URLs, index-
// aligned. Reads take the snapshot once and use it throughout; member
// additions swap in a new one.
type placement struct {
	members []*member
	ring    *ring
}

// newPlacement builds the ring over members' URLs.
func newPlacement(members []*member) placement {
	urls := make([]string, len(members))
	for i, m := range members {
		urls[i] = m.url
	}
	return placement{members: members, ring: newRing(urls)}
}

// with returns the placement grown by m: the one membership change that
// rebuilds the ring.
func (pl placement) with(m *member) placement {
	return newPlacement(append(pl.members[:len(pl.members):len(pl.members)], m))
}

// Runner shards engine jobs across a fleet of clusterd workers. Safe for
// concurrent use.
type Runner struct {
	mu sync.RWMutex
	pl placement

	// mship is the membership table placement filters through;
	// coordinator binds it to the shared epoch register (and degrades to
	// local-only transitions when none is configured — never nil).
	mship       *controlplane.Membership
	coordinator *controlplane.Coordinator

	logf     func(format string, args ...any)
	cooldown time.Duration
	// maxRetries bounds how often one job may fail with a worker-loss
	// error before the error is delivered: enough for every member to
	// die under it plus a couple of transient blips on live members.
	maxRetries int

	// copts/ropts build clients for every member, including workers that
	// join after construction (AddWorker, coordinator adoption).
	copts []client.Option
	ropts []client.RunnerOption

	// Control-plane counters surfaced by FleetStats.
	readmissions, drainMigrated, backfilled atomic.Int64
}

var _ engine.Runner = (*Runner)(nil)

// *client.Client is the wire implementation of every controlplane seam.
var (
	_ controlplane.CoordClient = (*client.Client)(nil)
	_ controlplane.Source      = (*client.Client)(nil)
	_ controlplane.Sink        = (*client.Client)(nil)
)

// New builds a fleet runner over the clusterd instances at urls. Every
// worker is health-checked (a stats round trip, which also exercises the
// configured token) before the constructor returns; any unreachable or
// unauthorized worker fails construction with an error naming it.
func New(urls []string, opts ...Option) (*Runner, error) {
	if len(urls) == 0 {
		return nil, errors.New("fleet: no worker URLs")
	}
	cfg := config{healthTimeout: 10 * time.Second, logf: func(string, ...any) {}}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.cooldown <= 0 {
		cfg.cooldown = defaultCooldown
	}
	f := &Runner{
		logf:       cfg.logf,
		cooldown:   cfg.cooldown,
		maxRetries: len(urls) + 2,
		copts:      cfg.clientOpts,
		ropts:      cfg.runnerOpts,
	}
	if cfg.token != "" {
		f.copts = append(f.copts[:len(f.copts):len(f.copts)], client.WithToken(cfg.token))
	}

	// Canonicalize before the duplicate check and ring construction:
	// client.New trims trailing slashes too, so slash-variants of one
	// worker must count as the same member (and shard identically from
	// every client, whichever spelling it was configured with).
	canon := make([]string, 0, len(urls))
	members := make([]*member, 0, len(urls))
	for _, u := range urls {
		u = strings.TrimRight(u, "/")
		if slices.Contains(canon, u) {
			return nil, fmt.Errorf("fleet: duplicate worker URL %q", u)
		}
		m, err := f.newMember(u)
		if err != nil {
			return nil, err
		}
		canon = append(canon, u)
		members = append(members, m)
	}

	ctx, cancel := context.WithTimeout(context.Background(), cfg.healthTimeout)
	defer cancel()
	errs := make([]error, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func(i int, m *member) {
			defer wg.Done()
			if _, err := m.c.Stats(ctx); err != nil {
				errs[i] = fmt.Errorf("fleet: worker %s failed its health check: %w", m.url, err)
			}
		}(i, m)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}

	f.pl = newPlacement(members)
	f.mship = controlplane.NewMembership(canon...)
	f.coordinator = controlplane.NewCoordinator(nil, f.mship)
	if cfg.coordURL != "" {
		if err := f.connectCoordinator(ctx, cfg.coordURL); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// newMember builds the connection to one worker, its circuit closed.
func (f *Runner) newMember(url string) (*member, error) {
	c, err := client.New(url, f.copts...)
	if err != nil {
		return nil, err
	}
	return &member{url: url, c: c, runner: client.NewRunner(c, f.ropts...), h: newHealth(f.cooldown)}, nil
}

// placementSnapshot returns the current (members, ring) pair.
func (f *Runner) placementSnapshot() placement {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.pl
}

// lookupMember resolves a canonical URL to its member, nil when unknown.
func (f *Runner) lookupMember(url string) *member {
	for _, m := range f.placementSnapshot().members {
		if m.url == url {
			return m
		}
	}
	return nil
}

// answering reports whether m is assignable in the membership table and
// not known to be unreachable: the workers a round may still hope to
// route to, and the ones whose stores a migration may read.
func (f *Runner) answering(m *member) bool {
	_, lost, _ := m.h.status()
	return !lost && f.mship.Assignable(m.url)
}

// Alive reports how many workers are assignable and not known to be
// unreachable — routable now, or answering probes while their circuit
// cools down.
func (f *Runner) Alive() int {
	n := 0
	for _, m := range f.placementSnapshot().members {
		if f.answering(m) {
			n++
		}
	}
	return n
}

// Run executes one job and blocks until its result is available.
func (f *Runner) Run(ctx context.Context, job engine.Job) *engine.Result {
	for jr := range f.Stream(ctx, []engine.Job{job}) {
		return jr.Result
	}
	return &engine.Result{Simpoint: job.Simpoint, Setup: job.Setup.Label,
		Err: errors.New("fleet: stream yielded no result")}
}

// Stats aggregates the work attributable to this runner: the sum of
// every routable member runner's server-counter deltas. Removed and unreachable
// members are skipped — their counters cannot be read, so work a member
// completed and delivered before it was lost drops out of the aggregate
// (its *unfinished* jobs re-ran on survivors and are counted there).
// After a mid-run worker loss the totals therefore undercount rather
// than block on a dead host.
func (f *Runner) Stats() engine.CacheStats {
	// One stats round trip per routable member, in parallel: a single
	// slow member costs its own latency, not N-cumulative timeouts.
	members := f.placementSnapshot().members
	parts := make([]engine.CacheStats, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		if !f.answering(m) {
			continue
		}
		wg.Add(1)
		go func(i int, m *member) {
			defer wg.Done()
			parts[i] = m.runner.Stats()
		}(i, m)
	}
	wg.Wait()
	var total engine.CacheStats
	for _, p := range parts {
		total = total.Add(p)
	}
	return total
}

// task is one remoteable job in flight: its index in the submitted batch
// and the result content key it shards by. err carries the last
// worker-loss failure observed, attempts how many times the task has
// failed that way (bounding its retries).
type task struct {
	idx      int
	key      string
	err      error
	attempts int
}

// Stream submits the jobs and returns a channel yielding each result
// exactly once as it completes. Jobs with a wire form shard across the
// fleet; the rest fail at once with the conversion error. The channel is buffered to
// hold every result and closed once all jobs finish. When a coordinator
// is configured the membership view is re-synced first, so a runner
// never submits a batch against an epoch another runner has already
// moved past.
func (f *Runner) Stream(ctx context.Context, jobs []engine.Job) <-chan engine.JobResult {
	out := make(chan engine.JobResult, len(jobs))
	go func() {
		defer close(out)
		f.syncMembership(ctx)

		var tasks []task
		for i, job := range jobs {
			if _, err := sim.SpecFromJob(job); err != nil {
				out <- engine.JobResult{Index: i, Job: job, Result: &engine.Result{
					Simpoint: job.Simpoint, Setup: job.Setup.Label,
					Err: fmt.Errorf("fleet: job has no wire form: %w", err),
				}}
				continue
			}
			// A job SpecFromJob accepts has a key, read off the same
			// resolution of its setup.
			key, _ := engine.ResultKey(job)
			tasks = append(tasks, task{idx: i, key: key})
		}
		if len(tasks) > 0 {
			f.runSharded(ctx, jobs, tasks, out)
		}
	}()
	return out
}

// retryable classifies a failed job result: true means the failure looks
// like worker loss (transport broke and the client's reconnect budget
// ran out), so the job is safe and worthwhile to re-run elsewhere.
// Failures the server itself reported — protocol refusals (api.Error)
// and executed-but-failed jobs (client.JobError) — are deterministic and
// would fail identically anywhere, except not_found: a worker that no
// longer knows the submission or the result (it restarted mid-stream)
// lost state, not the job. Context cancellation is the caller's own
// signal. A version-mismatched worker counts as lost: the job may still
// succeed on a correctly versioned survivor.
func retryable(err error) bool {
	var apiErr *api.Error
	var jobErr *client.JobError
	switch {
	case err == nil, errors.As(err, &jobErr),
		errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return false
	case errors.As(err, &apiErr):
		return apiErr.Code == api.CodeNotFound
	}
	return true
}

// runSharded drives the remoteable tasks to completion in rounds: shard
// by ring, stream every shard, and deliver each original job index
// exactly once. A job re-runs in exactly two ways. While its owner's
// circuit stays closed, a worker-loss failure retries it on that owner
// (streamTasks); once the circuit opens, it waits for the round's other
// shards and the next round re-shards it by the ring, which lands it on
// its ring successor — the worker a later batch will route its key to.
// Termination: every retry burns one of its task's bounded attempts
// (tasks that exhaust them deliver their error), so the round loop
// cannot spin. A round in which no circuit admits work routes nothing
// and burns nothing: if some member still answers its liveness probe,
// the round waits out the shortest cooldown and probes again, so a
// correlated blip is ridden out rather than failing the batch, while a
// sick fleet still fails its probe shards (burning their retries); if
// none answers, every pending task fails at once. Each round takes a
// fresh placement snapshot and asks every circuit afresh, so recovered
// workers (and workers another runner added through the coordinator)
// rejoin the sharding between rounds.
func (f *Runner) runSharded(ctx context.Context, jobs []engine.Job, tasks []task, out chan<- engine.JobResult) {
	var mu sync.Mutex
	delivered := make(map[int]bool, len(tasks))
	// deliver forwards a result unless the job already produced one — the
	// exactly-once guarantee of the merged stream.
	deliver := func(jr engine.JobResult) {
		mu.Lock()
		if delivered[jr.Index] {
			mu.Unlock()
			return
		}
		delivered[jr.Index] = true
		mu.Unlock()
		out <- jr
	}
	failAll := func(ts []task, cause error, format string) {
		for _, t := range ts {
			err := t.err
			if err == nil {
				err = cause
			}
			deliver(engine.JobResult{Index: t.idx, Job: jobs[t.idx], Result: &engine.Result{
				Simpoint: jobs[t.idx].Simpoint, Setup: jobs[t.idx].Setup.Label,
				Err: fmt.Errorf(format, err),
			}})
		}
	}

	pending := tasks
	for round := 0; len(pending) > 0; round++ {
		pl := f.placementSnapshot()
		// This round's routing view. Each circuit is asked once per round,
		// so a half-open one spends its single probe on one shard rather
		// than being consulted per key.
		routable := make([]bool, len(pl.members))
		grants := make([]int, len(pl.members))
		for i, m := range pl.members {
			if f.mship.Assignable(m.url) {
				routable[i], grants[i] = m.h.allow(func() bool { return probeAlive(m) })
			}
		}
		if !slices.Contains(routable, true) {
			if !slices.ContainsFunc(pl.members, f.answering) {
				failAll(pending, errors.New("fleet: no workers alive"), "fleet: every worker lost (last failure: %w)")
				return
			}
			f.logf("fleet: every circuit open; holding %d task(s) until a half-open probe re-admits a worker", len(pending))
			select {
			case <-ctx.Done():
				failAll(pending, ctx.Err(), "fleet: canceled while waiting out the circuit cooldown (last failure: %w)")
				return
			case <-time.After(f.retryDelay(pl)):
			}
			continue
		}
		groups := map[int][]task{}
		for _, t := range pending {
			m := pl.ring.pick(t.key, func(i int) bool { return routable[i] })
			groups[m] = append(groups[m], t)
		}
		for i, m := range pl.members {
			if len(groups[i]) == 0 {
				m.h.unused(grants[i])
			}
		}
		if round > 0 {
			f.logf("fleet: retry round %d: re-sharding %d job(s) across %d worker(s)", round, len(pending), len(groups))
		}

		var wg sync.WaitGroup
		stranded := make([][]task, len(pl.members))
		for m, ts := range groups {
			wg.Add(1)
			go func(m int, ts []task) {
				defer wg.Done()
				stranded[m] = f.streamTasks(ctx, pl.members[m], ts, jobs, deliver)
			}(m, ts)
		}
		wg.Wait()
		for i, m := range pl.members {
			m.h.unused(grants[i]) // a probe shard canceled before any outcome
		}

		pending = slices.Concat(stranded...)
		if len(pending) > 0 {
			// Between failover rounds, pull the freshest view: a worker
			// another runner added may take the strays.
			f.syncMembership(ctx)
		}
	}
}

// retryDelay is how long a round in which no circuit admitted work
// waits before asking again: the shortest retryAfter across pl's
// members, at least a millisecond so a race with an expiring cooldown
// cannot busy-spin.
func (f *Runner) retryDelay(pl placement) time.Duration {
	d := f.cooldown
	for _, m := range pl.members {
		d = min(d, m.h.retryAfter())
	}
	return max(d, time.Millisecond)
}

// streamTasks runs ts on mem, delivering successes and terminal
// failures. A worker-loss failure is followed by one liveness probe per
// batch, which tells the circuit whether the worker is gone (open at
// once) or merely failing (count toward the trip) — a single dropped
// connection on a one-shot request (submit, result fetch) must not cost
// the fleet a healthy worker. While the circuit stays closed, failed
// tasks retry on the same member, which keeps their keys where their
// results are cached; once it opens they are returned, stranded, for the
// next round to re-shard. Each task's retries are bounded, so a
// flapping-but-alive worker cannot loop a job forever.
func (f *Runner) streamTasks(ctx context.Context, mem *member, ts []task, jobs []engine.Job,
	deliver func(engine.JobResult)) (stranded []task) {
	for len(ts) > 0 {
		batch := make([]engine.Job, len(ts))
		for i, t := range ts {
			batch[i] = jobs[t.idx]
		}
		var again []task
		probed, alive := false, false // one probe per batch at most
		for jr := range mem.runner.Stream(ctx, batch) {
			t := ts[jr.Index]
			switch err := jr.Result.Err; {
			case err != nil && ctx.Err() == nil && retryable(err):
				if !probed {
					probed, alive = true, probeAlive(mem)
				}
				f.failed(mem, err, alive)
				t.attempts++
				t.err = err
				if t.attempts > f.maxRetries {
					deliver(engine.JobResult{Index: t.idx, Job: jobs[t.idx], Result: &engine.Result{
						Simpoint: jobs[t.idx].Simpoint, Setup: jobs[t.idx].Setup.Label,
						Err: fmt.Errorf("fleet: job failed %d times across workers (last: %w)", t.attempts, err),
					}})
					continue
				}
				again = append(again, t)
				continue
			case ctx.Err() == nil:
				// The worker answered — deterministic job failures included —
				// so its transport is healthy as far as the circuit goes.
				f.succeeded(mem)
			}
			deliver(engine.JobResult{Index: t.idx, Job: jobs[t.idx], Result: jr.Result})
		}
		if state, _, _ := mem.h.status(); state != HealthClosed {
			return again
		}
		ts = again
	}
	return nil
}

// failed feeds a worker-loss failure into mem's circuit and logs what
// it changed.
func (f *Runner) failed(mem *member, err error, alive bool) {
	switch opened := mem.h.failure(err, alive); {
	case opened && !alive:
		f.logf("fleet: worker %s lost (%v); re-sharding its unfinished jobs", mem.url, err)
	case opened:
		f.logf("fleet: worker %s failing while it answers probes (%v); circuit open", mem.url, err)
	case alive:
		f.logf("fleet: transient failure on %s (%v); retrying job", mem.url, err)
	}
}

// succeeded feeds an answered request into mem's circuit, counting the
// re-admission when it closed an open one.
func (f *Runner) succeeded(mem *member) {
	if mem.h.success() {
		f.readmissions.Add(1)
		f.logf("fleet: worker %s recovered; re-admitted", mem.url)
	}
}

// probeAlive asks whether a worker is there at all: a quick /healthz
// round trip, distinguishing a transient blip (retry on the same
// member) from a lost worker (open its circuit and re-shard).
func probeAlive(mem *member) bool {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return mem.c.Health(ctx) == nil
}
