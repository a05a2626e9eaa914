package fleet_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clustersim/client"
	"clustersim/fleet"
	"clustersim/internal/engine"
	"clustersim/internal/prog"
	"clustersim/internal/service"
	"clustersim/internal/sim"
	"clustersim/internal/store"
	"clustersim/internal/workload"
)

// worker is one in-process clusterd: a real service stack behind an
// interceptable handler, so tests can kill or delay it mid-protocol.
type worker struct {
	ts  *httptest.Server
	eng *engine.Engine
	svc http.Handler

	dead        atomic.Bool  // every request aborts at the transport level
	sick        atomic.Bool  // like dead, but liveness probes still answer
	killOnIndex atomic.Int64 // arm: die right after the Nth submit (1-based)
	forget      atomic.Bool  // arm: the next stream finds the worker restarted, its submissions gone
	restarted   atomic.Pointer[service.Server]
	submits     atomic.Int64
	requests    atomic.Int64  // every request that reached the worker, dead or not
	probes      atomic.Int64  // the /healthz ones among them
	streamDelay time.Duration // slows SSE delivery: a straggler worker
}

func (w *worker) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	w.requests.Add(1)
	if r.URL.Path == "/healthz" {
		w.probes.Add(1)
	}
	if w.dead.Load() {
		panic(http.ErrAbortHandler) // the transport dies, no HTTP answer
	}
	if w.sick.Load() && r.URL.Path != "/healthz" {
		// Sick, not gone: health probes pass while every real request
		// dies at the transport, so the circuit trips on its count.
		panic(http.ErrAbortHandler)
	}
	if w.streamDelay > 0 && strings.HasSuffix(r.URL.Path, "/stream") {
		time.Sleep(w.streamDelay)
	}
	if strings.HasSuffix(r.URL.Path, "/stream") && w.forget.CompareAndSwap(true, false) {
		st := store.NewMemory(64 << 20)
		w.restarted.Store(service.New(context.Background(), engine.New(engine.Options{Parallelism: 2, ResultStore: st}), st))
	}
	svc := w.svc
	if fresh := w.restarted.Load(); fresh != nil {
		svc = fresh
	}
	isSubmit := r.Method == http.MethodPost && r.URL.Path == "/v1/jobs"
	svc.ServeHTTP(rw, r)
	if isSubmit && w.submits.Add(1) == w.killOnIndex.Load() {
		// The submission was accepted and its jobs are running; every
		// request from here on — the SSE stream, result fetches — hits
		// the dead check above. This is "worker lost mid-stream".
		w.dead.Store(true)
	}
}

func startWorker(t *testing.T) *worker {
	t.Helper()
	st := store.NewTiered(store.NewMemory(64<<20), store.NewMemory(64<<20))
	eng := engine.New(engine.Options{Parallelism: 2, ResultStore: st})
	w := &worker{eng: eng, svc: service.New(context.Background(), eng, st)}
	w.ts = httptest.NewServer(w)
	t.Cleanup(w.ts.Close)
	return w
}

// fastClient makes failover quick enough for tests: tiny backoff, two
// reconnect attempts before a worker counts as lost.
func fastClient() fleet.Option {
	return fleet.WithClientOptions(
		client.WithBackoff(time.Millisecond, 5*time.Millisecond),
		client.WithRetries(2),
	)
}

// suiteJobs builds a unique-job matrix over n suite workloads × the two
// base setups.
func suiteJobs(t *testing.T, n int) ([]*workload.Simpoint, []engine.Setup, []engine.Job) {
	t.Helper()
	all := workload.QuickSuite()
	if n > len(all) {
		t.Fatalf("want %d workloads, quick suite has %d", n, len(all))
	}
	sps := all[:n]
	setups := []engine.Setup{sim.SetupOP(2), sim.SetupVC(2, 2)}
	var jobs []engine.Job
	for _, sp := range sps {
		for _, s := range setups {
			jobs = append(jobs, engine.Job{Simpoint: sp, Setup: s, Opts: engine.RunOptions{NumUops: 2000}})
		}
	}
	return sps, setups, jobs
}

// collect drains a result stream, failing on duplicate deliveries — the
// exactly-once contract of the merged stream.
func collect(t *testing.T, out <-chan engine.JobResult, want int) map[int]engine.JobResult {
	t.Helper()
	got := map[int]engine.JobResult{}
	deadline := time.After(120 * time.Second)
	for len(got) < want {
		select {
		case jr, ok := <-out:
			if !ok {
				t.Fatalf("stream closed after %d of %d results", len(got), want)
			}
			if _, dup := got[jr.Index]; dup {
				t.Fatalf("job %d delivered twice", jr.Index)
			}
			got[jr.Index] = jr
		case <-deadline:
			t.Fatalf("timed out with %d of %d results", len(got), want)
		}
	}
	if jr, ok := <-out; ok {
		t.Fatalf("extra result for job %d after all %d arrived", jr.Index, want)
	}
	return got
}

// A two-worker fleet produces results indistinguishable from a local
// engine's, spreads the work across both workers' stores, and a second
// fleet over the same workers is served entirely from their caches.
func TestFleetMatchesLocalEngine(t *testing.T) {
	w1, w2 := startWorker(t), startWorker(t)
	urls := []string{w1.ts.URL, w2.ts.URL}
	ctx := context.Background()

	f, err := fleet.New(urls, fastClient())
	if err != nil {
		t.Fatal(err)
	}
	sps, setups, _ := suiteJobs(t, 8)
	got, err := engine.RunMatrixOn(ctx, f, sps, setups, engine.RunOptions{NumUops: 2000})
	if err != nil {
		t.Fatal(err)
	}
	local := engine.New(engine.Options{Parallelism: 2})
	want, err := engine.RunMatrixOn(ctx, local, sps, setups, engine.RunOptions{NumUops: 2000})
	if err != nil {
		t.Fatal(err)
	}
	for i := range sps {
		for j := range setups {
			g, w := got[i][j], want[i][j]
			if g.Err != nil || w.Err != nil {
				t.Fatalf("cell %d/%d errs: %v / %v", i, j, g.Err, w.Err)
			}
			if g.Simpoint != sps[i] {
				t.Errorf("cell %d/%d not re-bound to the submitted simpoint", i, j)
			}
			if !reflect.DeepEqual(g.Metrics, w.Metrics) {
				t.Errorf("cell %d/%d metrics diverge", i, j)
			}
		}
	}

	// The consistent hash spread the batch: both workers simulated, and
	// together they covered every unique job exactly once.
	s1, s2 := w1.eng.Stats().Simulations, w2.eng.Stats().Simulations
	if s1 == 0 || s2 == 0 {
		t.Errorf("shard split degenerate: worker sims %d / %d", s1, s2)
	}
	if total := int(s1 + s2); total != len(sps)*len(setups) {
		t.Errorf("%d simulations across the fleet for %d unique jobs", total, len(sps)*len(setups))
	}
	if st := f.Stats(); st.Simulations != s1+s2 {
		t.Errorf("fleet stats report %d simulations, workers executed %d", st.Simulations, s1+s2)
	}

	// A fresh fleet re-running the same matrix executes nothing: every
	// key lands on the worker whose store already holds it.
	f2, err := fleet.New(urls, fastClient())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.RunMatrixOn(ctx, f2, sps, setups, engine.RunOptions{NumUops: 2000}); err != nil {
		t.Fatal(err)
	}
	if st := f2.Stats(); st.Simulations != 0 {
		t.Errorf("rerun executed %d simulations, want 0 (store affinity broken)", st.Simulations)
	}
}

// Killing a worker mid-stream must not lose or duplicate work: its
// unfinished jobs re-shard onto the survivor, every job yields exactly
// one successful result, and the loss is logged.
func TestFleetKillWorkerMidStream(t *testing.T) {
	w1, w2 := startWorker(t), startWorker(t)
	ctx := context.Background()

	var logMu sync.Mutex
	var logs []string
	f, err := fleet.New([]string{w1.ts.URL, w2.ts.URL}, fastClient(),
		fleet.WithLog(func(format string, args ...any) {
			logMu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			logMu.Unlock()
		}))
	if err != nil {
		t.Fatal(err)
	}

	// Arm worker 2: it accepts the fleet's shard submission, then its
	// transport dies — jobs in flight, none of their results fetchable.
	w2.killOnIndex.Store(1)

	_, _, jobs := suiteJobs(t, 8)
	got := collect(t, f.Stream(ctx, jobs), len(jobs))
	for idx, jr := range got {
		if jr.Result.Err != nil {
			t.Errorf("job %d failed despite failover: %v", idx, jr.Result.Err)
		}
	}

	// Every lost job re-ran exactly once, on the survivor: with worker
	// 2's results unreachable, worker 1 must have executed the whole
	// unique-job set (its engine dedups, so re-runs can't double-count).
	if s1 := w1.eng.Stats().Simulations; int(s1) != len(jobs) {
		t.Errorf("survivor executed %d simulations, want %d", s1, len(jobs))
	}
	if f.Alive() != 1 {
		t.Errorf("fleet reports %d workers alive, want 1", f.Alive())
	}
	logMu.Lock()
	defer logMu.Unlock()
	joined := strings.Join(logs, "\n")
	if !strings.Contains(joined, "lost") || !strings.Contains(joined, "re-sharding") {
		t.Errorf("worker loss not logged; logs:\n%s", joined)
	}

	// The dead worker is sticky: a later batch routes entirely to the
	// survivor without new failures.
	_, _, more := suiteJobs(t, 4)
	for idx, jr := range collect(t, f.Stream(ctx, more), len(more)) {
		if jr.Result.Err != nil {
			t.Errorf("post-loss job %d failed: %v", idx, jr.Result.Err)
		}
	}
}

// A round in which every worker still answers its liveness probe but
// every circuit is open (tripped by an earlier batch, e.g. a correlated
// blip) must hold the work through the cooldown and probe, not fail it
// as "every worker lost".
func TestFleetAllBreakersOpenHoldsNotFails(t *testing.T) {
	w1, w2 := startWorker(t), startWorker(t)

	var logMu sync.Mutex
	var logs []string
	f, err := fleet.New([]string{w1.ts.URL, w2.ts.URL}, fastClient(),
		fleet.WithReadmit(2*time.Second),
		fleet.WithLog(func(format string, args ...any) {
			logMu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			logMu.Unlock()
		}))
	if err != nil {
		t.Fatal(err)
	}
	w1.sick.Store(true)
	w2.sick.Store(true)

	// The first batch fails outright — both workers answer health probes
	// but abort every job request — exhausting each task's retries and
	// leaving both circuits open while the workers still answer. The
	// full suite matrix shards across both workers, tripping both.
	_, _, jobs := suiteJobs(t, 8)
	for idx, jr := range collect(t, f.Stream(context.Background(), jobs), len(jobs)) {
		if jr.Result.Err == nil {
			t.Fatalf("job %d succeeded on a sick worker", idx)
		}
	}
	if alive := f.Alive(); alive != 2 {
		t.Fatalf("sick-but-alive workers marked lost: %d alive, want 2", alive)
	}

	// Heal the workers and immediately resubmit: round 0 finds every
	// member answering yet its circuit open.
	w1.sick.Store(false)
	w2.sick.Store(false)
	for idx, jr := range collect(t, f.Stream(context.Background(), jobs), len(jobs)) {
		if jr.Result.Err != nil {
			t.Errorf("job %d failed despite healed workers: %v", idx, jr.Result.Err)
		}
	}
	logMu.Lock()
	defer logMu.Unlock()
	if joined := strings.Join(logs, "\n"); !strings.Contains(joined, "every circuit open") {
		t.Errorf("circuit hold not logged; logs:\n%s", joined)
	}
}

// When a lost worker's cooldown is over but it still does not answer,
// the half-open /healthz probe fails before any task is placed on it:
// the batch runs entirely on the survivor at the first attempt, with no
// retry spent.
func TestFleetFailedHealthProbeSpendsNoRetries(t *testing.T) {
	w1, w2 := startWorker(t), startWorker(t)
	var logMu sync.Mutex
	var logs []string
	f, err := fleet.New([]string{w1.ts.URL, w2.ts.URL}, fastClient(),
		fleet.WithReadmit(10*time.Millisecond),
		fleet.WithLog(func(format string, args ...any) {
			logMu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			logMu.Unlock()
		}))
	if err != nil {
		t.Fatal(err)
	}
	_, _, jobs := suiteJobs(t, 8)
	w2.dead.Store(true)
	collect(t, f.Stream(context.Background(), jobs), len(jobs))
	if f.Alive() != 1 {
		t.Fatalf("fleet reports %d alive after kill, want 1", f.Alive())
	}

	time.Sleep(20 * time.Millisecond) // the cooldown is over; the worker is still down
	logMu.Lock()
	logs = nil
	logMu.Unlock()
	reqs, probes := w2.requests.Load(), w2.probes.Load()
	for idx, jr := range collect(t, f.Stream(context.Background(), jobs), len(jobs)) {
		if jr.Result.Err != nil {
			t.Errorf("job %d failed: %v", idx, jr.Result.Err)
		}
	}
	if dp := w2.probes.Load() - probes; dp != 1 || w2.requests.Load()-reqs != dp {
		t.Errorf("lost worker saw %d request(s), %d of them /healthz; want exactly the one half-open probe",
			w2.requests.Load()-reqs, dp)
	}
	logMu.Lock()
	defer logMu.Unlock()
	if joined := strings.Join(logs, "\n"); strings.Contains(joined, "retry round") || strings.Contains(joined, "failure") {
		t.Errorf("a failed half-open probe cost tasks a retry; logs:\n%s", joined)
	}
	if f.Alive() != 1 {
		t.Errorf("fleet reports %d alive, want 1", f.Alive())
	}
}

// A half-open probe shard whose batch is canceled before any outcome
// must not leave the worker's circuit wedged half-open: the next batch
// probes again and re-admits it.
func TestFleetCanceledProbeDoesNotWedge(t *testing.T) {
	w := startWorker(t)
	w.streamDelay = 300 * time.Millisecond
	f, err := fleet.New([]string{w.ts.URL}, fastClient(), fleet.WithReadmit(10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	_, _, jobs := suiteJobs(t, 2)
	w.dead.Store(true)
	collect(t, f.Stream(context.Background(), jobs), len(jobs))
	if f.Alive() != 0 {
		t.Fatalf("fleet reports %d alive after kill, want 0", f.Alive())
	}

	w.dead.Store(false)
	time.Sleep(20 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	collect(t, f.Stream(ctx, jobs), len(jobs)) // the probe shard, canceled mid-stream
	cancel()

	ctx, cancel = context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for idx, jr := range collect(t, f.Stream(ctx, jobs), len(jobs)) {
		if jr.Result.Err != nil {
			t.Errorf("job %d failed after the canceled probe: %v", idx, jr.Result.Err)
		}
	}
	if st := f.FleetStats(); st.Readmissions != 1 || st.Members[0].Health != fleet.HealthClosed {
		t.Errorf("readmissions = %d, health = %q; want 1 and closed", st.Readmissions, st.Members[0].Health)
	}
}

// A runner keeps nothing of the programs it sharded once their stream
// has drained. The suite's own programs live for the whole process, but
// callers may shard programs of their own, so a runner-lifetime memo
// keyed by program would keep every program ever sharded reachable. The
// clones share the suite fingerprints (so the jobs still travel) but are
// fresh pointers only this test holds.
func TestFleetStreamReleasesPrograms(t *testing.T) {
	w1 := startWorker(t)
	f, err := fleet.New([]string{w1.ts.URL}, fastClient())
	if err != nil {
		t.Fatal(err)
	}
	var freed atomic.Int64
	n := func() int {
		sps := workload.QuickSuite()
		jobs := make([]engine.Job, len(sps))
		for i, sp := range sps {
			sp.Program = sp.Program.Clone()
			runtime.SetFinalizer(sp.Program, func(*prog.Program) { freed.Add(1) })
			jobs[i] = engine.Job{Simpoint: sp, Setup: sim.SetupOP(2), Opts: engine.RunOptions{NumUops: 2000}}
		}
		collect(t, f.Stream(context.Background(), jobs), len(jobs))
		return len(sps)
	}()
	for i := 0; i < 100 && freed.Load() < int64(n); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond) // let queued finalizers run
	}
	if got := freed.Load(); got != int64(n) {
		t.Errorf("%d of %d sharded programs collectable after the stream drained", got, n)
	}
	runtime.KeepAlive(f)
}

// A worker that restarts between accepting a shard and streaming it
// answers the stream with not_found: it lost the submission, not the
// jobs, so they re-run rather than fail.
func TestFleetWorkerRestartMidStream(t *testing.T) {
	w1, w2 := startWorker(t), startWorker(t)
	f, err := fleet.New([]string{w1.ts.URL, w2.ts.URL}, fastClient(), fleet.WithReadmit(10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	w1.forget.Store(true)
	w2.forget.Store(true)
	_, _, jobs := suiteJobs(t, 8)
	for idx, jr := range collect(t, f.Stream(context.Background(), jobs), len(jobs)) {
		if jr.Result.Err != nil {
			t.Errorf("job %d failed across a worker restart: %v", idx, jr.Result.Err)
		}
	}
}

// With every worker lost, pending jobs surface errors (exactly one per
// job) instead of hanging.
func TestFleetAllWorkersLost(t *testing.T) {
	w1, w2 := startWorker(t), startWorker(t)
	f, err := fleet.New([]string{w1.ts.URL, w2.ts.URL}, fastClient())
	if err != nil {
		t.Fatal(err)
	}
	w1.killOnIndex.Store(1)
	w2.killOnIndex.Store(1)

	_, _, jobs := suiteJobs(t, 4)
	failed := 0
	for _, jr := range collect(t, f.Stream(context.Background(), jobs), len(jobs)) {
		if jr.Result.Err != nil {
			failed++
		}
	}
	if failed == 0 {
		t.Error("every worker died yet no job reported an error")
	}
	if f.Alive() != 0 {
		t.Errorf("fleet reports %d workers alive, want 0", f.Alive())
	}
}

// customJob is a job with no declarative wire form: gzip-1's program
// under a name outside the suite.
func customJob(name string, setup engine.Setup) engine.Job {
	sp := workload.ByName("gzip-1")
	return engine.Job{
		Simpoint: &workload.Simpoint{Name: name, Bench: name, Weight: 1,
			Seed: sp.Seed, Program: sp.Program},
		Setup: setup,
		Opts:  engine.RunOptions{NumUops: 2000},
	}
}

// Jobs with no declarative wire form fail loudly on a bare fleet;
// client.Hybrid runs them locally. Deterministic job failures are never
// retried as worker loss.
func TestFleetFallback(t *testing.T) {
	w1, w2 := startWorker(t), startWorker(t)
	ctx := context.Background()
	custom := customJob("homegrown", sim.SetupOP(2))

	bare, err := fleet.New([]string{w1.ts.URL, w2.ts.URL}, fastClient())
	if err != nil {
		t.Fatal(err)
	}
	if res := bare.Run(ctx, custom); res.Err == nil {
		t.Fatal("non-remoteable job succeeded without a fallback")
	}
	if w1.eng.Stats().Simulations+w2.eng.Stats().Simulations != 0 {
		t.Error("custom-program job leaked to the fleet")
	}
	// Both workers stay alive: a job-level refusal is not worker loss.
	if bare.Alive() != 2 {
		t.Errorf("fleet reports %d alive after a local-only job, want 2", bare.Alive())
	}

	local := engine.New(engine.Options{Parallelism: 1})
	if res := client.Hybrid(bare, local).Run(ctx, custom); res.Err != nil {
		t.Fatalf("fallback run: %v", res.Err)
	}
	if local.Stats().Simulations != 1 {
		t.Error("custom-program job did not run on the fallback engine")
	}
}

// One Stream through client.Hybrid over a two-worker fleet that mixes
// suite jobs with custom-program jobs returns every result under its
// submitted index and runs the custom jobs on the local engine only.
func TestFleetHybridMixedBatch(t *testing.T) {
	w1, w2 := startWorker(t), startWorker(t)
	ctx := context.Background()
	f, err := fleet.New([]string{w1.ts.URL, w2.ts.URL}, fastClient())
	if err != nil {
		t.Fatal(err)
	}
	_, _, suite := suiteJobs(t, 3) // 6 unique jobs
	jobs := []engine.Job{customJob("homegrown", sim.SetupOP(2))}
	for i, j := range suite {
		jobs = append(jobs, j)
		if i == 2 {
			jobs = append(jobs, customJob("homegrown-2", sim.SetupVC(2, 2)))
		}
	}
	jobs = append(jobs, customJob("homegrown-3", sim.SetupOP(2)))
	local := engine.New(engine.Options{Parallelism: 2})

	seen := make([]bool, len(jobs))
	for jr := range client.Hybrid(f, local).Stream(ctx, jobs) {
		if seen[jr.Index] {
			t.Fatalf("index %d delivered twice", jr.Index)
		}
		seen[jr.Index] = true
		want := jobs[jr.Index]
		if jr.Result.Err != nil {
			t.Fatalf("job %d: %v", jr.Index, jr.Result.Err)
		}
		if jr.Job.Simpoint != want.Simpoint || jr.Result.Simpoint.Name != want.Simpoint.Name ||
			jr.Result.Setup != want.Setup.Label {
			t.Errorf("index %d carries %s/%s, submitted %s/%s", jr.Index,
				jr.Result.Simpoint.Name, jr.Result.Setup, want.Simpoint.Name, want.Setup.Label)
		}
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("no result for index %d", i)
		}
	}
	if got := local.Stats().Simulations; got != 3 {
		t.Errorf("local engine ran %d simulations, want the 3 custom jobs", got)
	}
	if got := w1.eng.Stats().Simulations + w2.eng.Stats().Simulations; got != int64(len(suite)) {
		t.Errorf("fleet ran %d simulations, want the %d suite jobs", got, len(suite))
	}
}

// Construction health-checks every worker and names the unreachable or
// unauthorized ones; a correct token passes.
func TestFleetConstructionHealthCheck(t *testing.T) {
	good := startWorker(t)
	deadTS := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	deadURL := deadTS.URL
	deadTS.Close()

	_, err := fleet.New([]string{good.ts.URL, deadURL},
		fleet.WithHealthTimeout(2*time.Second))
	if err == nil || !strings.Contains(err.Error(), deadURL) {
		t.Fatalf("dead worker not named at construction: %v", err)
	}

	// An authenticated fleet: wrong token fails construction, right one
	// passes and runs jobs.
	st := store.NewMemory(64 << 20)
	eng := engine.New(engine.Options{Parallelism: 2, ResultStore: st})
	svc := service.New(context.Background(), eng, st)
	svc.SetToken("sesame")
	locked := httptest.NewServer(svc)
	t.Cleanup(locked.Close)

	if _, err := fleet.New([]string{locked.URL}, fleet.WithHealthTimeout(2*time.Second)); err == nil {
		t.Fatal("tokenless fleet passed an authenticated worker's health check")
	}
	f, err := fleet.New([]string{locked.URL}, fastClient(), fleet.WithToken("sesame"))
	if err != nil {
		t.Fatal(err)
	}
	res := f.Run(context.Background(),
		engine.Job{Simpoint: workload.ByName("gzip-1"), Setup: sim.SetupOP(2), Opts: engine.RunOptions{NumUops: 2000}})
	if res.Err != nil {
		t.Fatalf("authenticated run: %v", res.Err)
	}

	if _, err := fleet.New(nil); err == nil {
		t.Error("empty fleet accepted")
	}
	if _, err := fleet.New([]string{good.ts.URL, good.ts.URL}); err == nil {
		t.Error("duplicate worker URL accepted")
	}
}

// A lost worker's jobs re-shard onto their ring successors, not onto
// whichever survivor drains first: a rerun of the same batch on the same
// runner (the lost worker's circuit still open) routes every key to the
// worker that already simulated it, so nothing re-simulates. Both
// survivors straggle, so the lost worker's jobs are stranded while both
// shards are still in flight.
func TestFleetFailoverKeepsRingPlacement(t *testing.T) {
	ws := []*worker{startWorker(t), startWorker(t), startWorker(t)}
	ws[0].killOnIndex.Store(1)
	ws[1].streamDelay = 300 * time.Millisecond
	ws[2].streamDelay = 300 * time.Millisecond
	f, err := fleet.New([]string{ws[0].ts.URL, ws[1].ts.URL, ws[2].ts.URL}, fastClient(),
		fleet.WithReadmit(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	sims := func() int64 { return ws[1].eng.Stats().Simulations + ws[2].eng.Stats().Simulations }

	_, _, jobs := suiteJobs(t, 8)
	for idx, jr := range collect(t, f.Stream(context.Background(), jobs), len(jobs)) {
		if jr.Result.Err != nil {
			t.Fatalf("job %d failed despite failover: %v", idx, jr.Result.Err)
		}
	}
	if f.Alive() != 2 {
		t.Fatalf("fleet reports %d workers alive, want 2", f.Alive())
	}
	before := sims()
	for idx, jr := range collect(t, f.Stream(context.Background(), jobs), len(jobs)) {
		if jr.Result.Err != nil {
			t.Fatalf("rerun job %d failed: %v", idx, jr.Result.Err)
		}
	}
	if n := sims() - before; n != 0 {
		t.Errorf("rerun re-simulated %d job(s), want 0: failover placed them off their ring successors", n)
	}
}
