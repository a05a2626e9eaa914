package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"clustersim/client"
	"clustersim/fleet"
	"clustersim/internal/engine"
	"clustersim/internal/obs"
	"clustersim/internal/sim"
	"clustersim/internal/workload"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	nproc    int
}

// workloadDef describes how one workload splits its measured time.
type workloadDef struct {
	name string
	// regenShare is the share of the measured time spent regenerating
	// the evaluation; the rest paces the interactive phase.
	regenShare float64
	// passSeconds is the nominal time of one pass (measured on a 2-vCPU
	// Xeon VM). A run makes the number of passes that fills its
	// regeneration share at that speed, so every run does the same work
	// however fast the machine happens to be.
	passSeconds float64
	// workers is how many in-process clusterd workers serve the
	// workload, splitting nproc between them. They start from a
	// persisted result cache, so their regeneration passes must not
	// simulate. With none, every pass runs on a fresh local engine with
	// no store.
	workers int
	// exps are the experiments one pass regenerates.
	exps []experiment
}

// local reports whether the workload runs on local engines. Their user is
// a program waiting on each call, not independent clients, so its
// interactive requests go from one caller, back to back, instead of on
// the open-loop schedule, in slices between the regenerated experiments.
func (d workloadDef) local() bool { return d.workers == 0 }

// workloads are the benchmark's workloads; BENCHMARK.json says why each
// exists.
var workloads = []workloadDef{
	{name: "figs-cold", regenShare: 0.8, passSeconds: 4.8, exps: allExperiments},
	{name: "figs-warm-fleet", regenShare: 0.5, passSeconds: 0.055, workers: 2, exps: wireExperiments},
	{name: "serve-mixed", regenShare: 0.15, passSeconds: 0.05, workers: 1, exps: wireExperiments},
}

// deploy builds the system under test: local engines, one clusterd behind
// a client.Runner, or several behind a fleet.Runner.
func (d workloadDef) deploy(cfg config, in *inputs) (system, error) {
	switch d.workers {
	case 0:
		return deployLocal(cfg, in)
	case 1:
		return deployRemote(cfg, in, 1, cfg.nproc, clientRunner)
	default:
		return deployRemote(cfg, in, d.workers, max(1, cfg.nproc/d.workers), fleetRunner)
	}
}

// system is a deployment the workload drives: where passes and
// interactive requests run, and where its counters are read.
type system interface {
	// passRunner returns the runner for the next regeneration pass.
	passRunner(traced bool) engine.Runner
	// interactiveRunner returns the runner for the interactive phase.
	interactiveRunner() engine.Runner
	// counters snapshots every cumulative counter of the deployment.
	counters(ctx context.Context) (counters, error)
	// flights returns the flight records the deployment's tracers hold.
	flights() (engine []obs.FlightRecord, batches []obs.FlightRecord)
	// jobsPerWorker returns per-worker job totals (nil when local).
	jobsPerWorker() []int64
	close()
}

// inputs are the seeded inputs of a run.
type inputs struct {
	hot   []engine.Job
	reqs  []request
	blobs persisted // the persisted cache remote workers start from
}

// hotSet is the interactive hot set: the quick suite under every
// 2-cluster setup of Figure 5, at the regeneration trace length — so
// every hot job is a result the evaluation already produced.
func hotSet(uops int) []engine.Job {
	setups := []engine.Setup{
		sim.SetupOP(2), sim.SetupOneCluster(2), sim.SetupOB(2), sim.SetupRHOP(2), sim.SetupVC(2, 2),
	}
	var jobs []engine.Job
	for _, sp := range workload.QuickSuite() {
		for _, s := range setups {
			jobs = append(jobs, engine.Job{Simpoint: sp, Setup: s, Opts: engine.RunOptions{NumUops: uops}})
		}
	}
	return jobs
}

// localSystem is figs-cold: every pass on a fresh in-process engine with
// no store, and the interactive calls on one more engine, which set-up
// warms with the hot set, as a program that computed those results
// earlier holds them.
type localSystem struct {
	nproc  int
	inter  *engine.Engine
	last   *engine.Engine // the latest pass's
	traced []*engine.Engine
}

func deployLocal(cfg config, in *inputs) (system, error) {
	s := &localSystem{nproc: cfg.nproc}
	s.inter = s.newEngine(cfg.trace)
	failed := 0
	for jr := range s.inter.Stream(context.Background(), in.hot) {
		if jr.Result == nil || jr.Result.Err != nil {
			failed++
		}
	}
	if failed > 0 {
		return nil, fmt.Errorf("%d hot-set jobs failed", failed)
	}
	return s, nil
}

func (s *localSystem) newEngine(traced bool) *engine.Engine {
	opts := engine.Options{Parallelism: s.nproc}
	if traced {
		opts.Tracer = obs.NewTracer(16384)
	}
	eng := engine.New(opts)
	if traced {
		s.traced = append(s.traced, eng)
	}
	return eng
}

func (s *localSystem) passRunner(traced bool) engine.Runner {
	s.last = s.newEngine(traced)
	return s.last
}

func (s *localSystem) interactiveRunner() engine.Runner { return s.inter }

func (s *localSystem) counters(context.Context) (counters, error) {
	c := engineCounters(s.inter).plus(runtimeCounters())
	if s.last != nil {
		c = c.plus(engineCounters(s.last))
	}
	return c, nil
}

func (s *localSystem) flights() ([]obs.FlightRecord, []obs.FlightRecord) {
	var recs []obs.FlightRecord
	for _, e := range s.traced {
		recs = append(recs, e.Tracer().Records()...)
	}
	return recs, nil
}

func (s *localSystem) jobsPerWorker() []int64 { return nil }
func (s *localSystem) close()                 {}

// remoteSystem is a set of in-process clusterd workers driven through a
// runner built by mk — a fleet or a single client runner — once plainly
// and once with the benchmark's tracing (batch flights and per-call hop
// times) for the traced run.
type remoteSystem struct {
	dep           *deployment
	plain, traced engine.Runner // traced is nil outside the traced run
	calls         *callLog
	batches       *obs.Tracer
	closeRunners  func()
}

type runnerFactory func(urls []string, copts []client.Option, ropts []client.RunnerOption) (engine.Runner, func(), error)

func deployRemote(cfg config, in *inputs, workers, parallelism int, mk runnerFactory) (system, error) {
	dep, err := deploy(workers, parallelism, in.blobs)
	if err != nil {
		return nil, err
	}
	s := &remoteSystem{dep: dep}
	plain, closePlain, err := mk(dep.urls(), []client.Option{dep.httpClient()}, nil)
	if err != nil {
		dep.close()
		return nil, err
	}
	s.plain, s.closeRunners = plain, closePlain
	if cfg.trace {
		s.calls = newCallLog()
		s.batches = obs.NewTracer(1 << 16)
		traced, closeTraced, err := mk(dep.urls(),
			[]client.Option{dep.httpClient(), client.WithCallObserver(s.calls.observe)},
			[]client.RunnerOption{client.WithRunnerTracer(s.batches)})
		if err != nil {
			s.close()
			return nil, err
		}
		s.traced = traced
		s.closeRunners = func() { closePlain(); closeTraced() }
	}
	return s, nil
}

func fleetRunner(urls []string, copts []client.Option, ropts []client.RunnerOption) (engine.Runner, func(), error) {
	f, err := fleet.New(urls, fleet.WithClientOptions(copts...), fleet.WithRunnerOptions(ropts...))
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}

func clientRunner(urls []string, copts []client.Option, ropts []client.RunnerOption) (engine.Runner, func(), error) {
	c, err := client.New(urls[0], copts...)
	if err != nil {
		return nil, nil, err
	}
	return client.NewRunner(c, ropts...), func() {}, nil
}

func (s *remoteSystem) passRunner(traced bool) engine.Runner {
	if traced {
		return s.traced
	}
	return s.plain
}

func (s *remoteSystem) interactiveRunner() engine.Runner { return s.passRunner(s.traced != nil) }

func (s *remoteSystem) counters(ctx context.Context) (counters, error) {
	c, err := s.dep.scrape(ctx)
	if err != nil {
		return nil, err
	}
	return counters(c).plus(runtimeCounters()).plus(s.calls.snapshot()), nil
}

func (s *remoteSystem) flights() ([]obs.FlightRecord, []obs.FlightRecord) {
	var recs []obs.FlightRecord
	for _, sv := range s.dep.servers {
		recs = append(recs, sv.eng.Tracer().Records()...)
	}
	return recs, s.batches.Records()
}

func (s *remoteSystem) jobsPerWorker() []int64 { return s.dep.jobsPerWorker() }

func (s *remoteSystem) close() {
	if s.closeRunners != nil {
		s.closeRunners()
	}
	s.dep.close()
}

// outcome is what one run measured.
type outcome struct {
	setups            []time.Duration
	passes            []time.Duration // untraced regeneration passes
	tracedPasses      []time.Duration
	samples           []sample
	attempted, failed int
	deviations        int
	peakRSSMiB        float64
	layers            map[string]float64
}

// failf records a failed operation with its reason on stderr.
func (o *outcome) failf(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	o.failed += n
	fmt.Fprintf(os.Stderr, "perfbench: FAIL (%d): %s\n", n, fmt.Sprintf(format, args...))
}

// setupRounds is how many times a run sets up; setup_s is the median.
const setupRounds = 15

func runWorkload(ctx context.Context, cfg config, def workloadDef, pins *ledger) (*outcome, error) {
	out := &outcome{}
	uops := pins.TraceUops

	in := &inputs{}
	if !def.local() {
		// The workers' persisted cache. It is an input, like a disk
		// cache left by an earlier run, so it is made before set-up
		// timing, and by a helper process, so the memory making it takes
		// stays out of the workload's peak.
		var err error
		if in.blobs, err = fromHelper(cfg, helperPersisted); err != nil {
			return nil, err
		}
	}

	passes := max(1, int(def.regenShare*cfg.seconds/def.passSeconds+0.5))
	if cfg.trace {
		// Alternate plain and traced passes, ending on a traced one.
		passes = max(2, passes+passes%2)
	}
	interactive := time.Duration((1 - def.regenShare) * cfg.seconds * float64(time.Second))

	// Set-up: build the inputs and the deployment (local engines warm
	// the interactive engine with the hot set), and on clusterd workers
	// run one warm pass, unmeasured, to finish every lazy
	// initialisation; repeated, and the last deployment kept.
	var sys system
	for i := 0; i < setupRounds; i++ {
		if sys != nil {
			sys.close()
		}
		t0 := time.Now()
		in.hot = hotSet(uops)
		in.reqs = schedule(cfg.seed, in.hot, interactive)
		var err error
		if sys, err = def.deploy(cfg, in); err != nil {
			return nil, err
		}
		if !def.local() {
			if _, err := regenerate(ctx, sys.passRunner(false), def.exps, uops, nil); err != nil {
				sys.close()
				return nil, err
			}
		}
		out.setups = append(out.setups, time.Since(t0))
	}
	defer sys.close()

	// The interactive phase, whole or in slices.
	var interDelta counters
	interact := func(reqs []request) error {
		before, err := sys.counters(ctx)
		if err != nil {
			return err
		}
		if def.local() {
			out.samples = append(out.samples, closedLoop(ctx, sys.interactiveRunner(), reqs)...)
		} else {
			out.samples = append(out.samples, openLoop(ctx, sys.interactiveRunner(), reqs, cfg.nproc)...)
		}
		after, err := sys.counters(ctx)
		if err != nil {
			return err
		}
		interDelta = interDelta.plus(after.sub(before))
		return nil
	}

	// On local engines, a slice of the interactive requests follows each
	// experiment of each pass, untimed in the pass, so the calls sample
	// the host across the whole run, as the passes do, rather than in a
	// few seconds of it. Each slice starts from a collected heap, so the
	// slices do not decide when the experiments' collections run.
	var between func() error
	if def.local() {
		slice, slices := 0, passes*len(def.exps)
		between = func() error {
			runtime.GC()
			n := len(in.reqs)
			err := interact(in.reqs[slice*n/slices : (slice+1)*n/slices])
			slice++
			return err
		}
	}

	// Regeneration phase. The traced run alternates plain and traced
	// passes; the ratio of their medians is the tracing overhead.
	li := layerInputs{experiments: map[string][]time.Duration{}}
	var (
		passDelta counters
		ipc       = map[string]float64{}
		windows   [][2]time.Time
		jobsBase  = sys.jobsPerWorker()
	)
	// Each measured phase starts from a collected heap, so the garbage
	// set-up left behind does not decide when the first collections run.
	runtime.GC()
	for i := 0; i < passes; i++ {
		traced := cfg.trace && i%2 == 1
		r := sys.passRunner(traced)
		before, err := sys.counters(ctx)
		if err != nil {
			return nil, err
		}
		mark := interDelta
		p, err := regenerate(ctx, r, def.exps, uops, between)
		if err != nil {
			return nil, err
		}
		after, err := sys.counters(ctx)
		if err != nil {
			return nil, err
		}
		out.attempted += len(p.results)
		out.failf(p.failed, "jobs of a pass returned errors")
		for _, e := range def.exps {
			if got, want := digest(p.texts[e.name]), pins.Sections[e.name]; got != want {
				out.failf(1, "%s report digest %s, pinned %s", e.name, got, want)
			}
		}
		delta := after.sub(before).sub(interDelta.sub(mark)) // the pass's own
		li.sims = int64(delta["clusterd_engine_simulations_total"])
		if !def.local() {
			// A warm pass must be served entirely from the workers'
			// caches: any simulation is a failure.
			out.failf(int(li.sims), "a warm pass simulated")
		} else {
			var distinct int64
			distinct, li.simUops, li.simCycles = simulatedWork(p.results)
			out.deviations += pins.checkCold(delta, distinct, li.simUops, li.simCycles)
		}
		if !traced {
			out.passes = append(out.passes, p.wall)
			continue
		}
		out.tracedPasses = append(out.tracedPasses, p.wall)
		passDelta = passDelta.plus(delta)
		for name, d := range p.sections {
			li.experiments[name] = append(li.experiments[name], d)
		}
		windows = append(windows, p.windows...)
		ipcByLabel(p.results, ipc)
	}
	li.workerShare = maxShare(jobsBase, sys.jobsPerWorker())

	if !def.local() {
		runtime.GC()
		if err := interact(in.reqs); err != nil {
			return nil, err
		}
	}
	out.peakRSSMiB = peakRSSMiB()
	out.attempted += len(out.samples)
	// Untimed output gate: every interactive result against a fresh
	// engine.Execute reference.
	refs, err := fromHelper(cfg, helperReferences)
	if err != nil {
		return nil, err
	}
	out.failf(checkSamples(in.reqs, out.samples, refs), "interactive results failed or differ from the engine.Execute reference")

	if cfg.trace {
		li.c = passDelta.scaled(1 / float64(len(out.tracedPasses))).plus(interDelta)
		for i, s := range out.samples {
			if !s.Hit && s.Result.Err == nil {
				li.missUops += s.Result.Metrics.Uops
				li.missCycles += s.Result.Metrics.Cycles
			}
			ipcByLabel([]engine.JobResult{{Job: in.reqs[i].Job, Result: s.Result}}, ipc)
		}
		recs, batches := sys.flights()
		li.flights.add(recs, ipc)
		li.flights.add(batches, nil)
		li.straggler = stragglerRatio(batches, windows)
		li.loadgen = out.samples
		li.overhead = medianSeconds(out.tracedPasses)/medianSeconds(out.passes) - 1
		li.deviations = out.deviations
		li.failFrac = float64(out.failed) / float64(out.attempted)
		out.layers = perLayer(li)
	}
	return out, nil
}

// maxShare is the largest worker's share of the jobs the workers answered
// between two jobsPerWorker readings; 0 without several workers.
func maxShare(before, after []int64) float64 {
	var total, most int64
	for i := range after {
		n := after[i] - before[i]
		total += n
		most = max(most, n)
	}
	if len(after) < 2 || total == 0 {
		return 0
	}
	return float64(most) / float64(total)
}

// sampleKey names the job of an interactive request.
func sampleKey(job engine.Job) string {
	return fmt.Sprintf("%s|%s|%d", job.Simpoint.Name, job.Setup.Label, job.Opts.NumUops)
}

// references computes, with a fresh uncached engine.Execute, the encoded
// result of every distinct job of an interactive schedule.
func references(ctx context.Context, reqs []request, workers int) (map[string][]byte, error) {
	type ref struct {
		job  engine.Job
		blob []byte
		err  error
	}
	refs := map[string]*ref{}
	var todo []*ref
	for _, r := range reqs {
		if k := sampleKey(r.Job); refs[k] == nil {
			refs[k] = &ref{job: r.Job}
			todo = append(todo, refs[k])
		}
	}
	next := make(chan *ref)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range next {
				if res := engine.Execute(ctx, r.job); res.Err != nil {
					r.err = res.Err
				} else {
					r.blob, r.err = engine.EncodeResult(res)
				}
			}
		}()
	}
	for _, r := range todo {
		next <- r
	}
	close(next)
	wg.Wait()

	out := map[string][]byte{}
	for k, r := range refs {
		if r.err != nil {
			return nil, fmt.Errorf("reference %s: %w", k, r.err)
		}
		out[k] = r.blob
	}
	return out, nil
}

// checkSamples compares every interactive result, byte for byte in the
// result codec, with its reference, and returns how many failed or
// differ. reqs and ss correspond.
func checkSamples(reqs []request, ss []sample, refs map[string][]byte) int {
	bad := 0
	for i, s := range ss {
		want := refs[sampleKey(reqs[i].Job)]
		if s.Result == nil || s.Result.Err != nil || want == nil {
			bad++
			continue
		}
		if got, err := engine.EncodeResult(s.Result); err != nil || !bytes.Equal(got, want) {
			bad++
		}
	}
	return bad
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		var kb float64
		if n, _ := fmt.Sscanf(string(line), "VmHWM: %f kB", &kb); n == 1 {
			return kb / 1024
		}
	}
	return 0
}
