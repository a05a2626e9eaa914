package engine_test

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"clustersim/internal/engine"
	"clustersim/internal/pipeline"
	"clustersim/internal/prog"
	"clustersim/internal/sim"
	"clustersim/internal/workload"
)

func quickJob(name string, setup sim.Setup) engine.Job {
	return engine.Job{
		Simpoint: workload.ByName(name),
		Setup:    setup,
		Opts:     sim.RunOptions{NumUops: 4000},
	}
}

func encode(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// Cached engine results must be byte-identical to the uncached RunOne
// reference path.
func TestCachedResultByteIdenticalToUncached(t *testing.T) {
	job := quickJob("crafty", sim.SetupVC(2, 2))
	ref := sim.RunOne(job.Simpoint, job.Setup, job.Opts)
	if ref.Err != nil {
		t.Fatal(ref.Err)
	}

	eng := engine.New(engine.Options{Parallelism: 2})
	first := eng.Run(context.Background(), job)
	second := eng.Run(context.Background(), job)
	if first.Err != nil || second.Err != nil {
		t.Fatalf("errs: %v %v", first.Err, second.Err)
	}
	st := eng.Stats()
	if st.Simulations != 1 || st.ResultHits != 1 {
		t.Errorf("want exactly 1 simulation and 1 result hit, got %+v", st)
	}
	refBytes := encode(t, ref.Metrics)
	for i, r := range []*engine.Result{first, second} {
		if !bytes.Equal(encode(t, r.Metrics), refBytes) {
			t.Errorf("run %d: metrics differ from uncached reference", i)
		}
		if !reflect.DeepEqual(r.Complexity, ref.Complexity) {
			t.Errorf("run %d: complexity differs from uncached reference", i)
		}
	}
}

// A matrix must be deterministic across worker-pool widths.
func TestMatrixParallelism1vsN(t *testing.T) {
	sps := workload.QuickSuite()[:3]
	setups := []sim.Setup{sim.SetupOP(2), sim.SetupRHOP(2), sim.SetupVC(2, 2)}
	opt := sim.RunOptions{NumUops: 4000}

	seq, err := engine.New(engine.Options{Parallelism: 1}).
		RunMatrix(context.Background(), sps, setups, opt)
	if err != nil {
		t.Fatal(err)
	}
	par, err := engine.New(engine.Options{Parallelism: 8}).
		RunMatrix(context.Background(), sps, setups, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sps {
		for j := range setups {
			a, b := seq[i][j], par[i][j]
			if a.Err != nil || b.Err != nil {
				t.Fatalf("%d,%d: errs %v %v", i, j, a.Err, b.Err)
			}
			if !bytes.Equal(encode(t, a.Metrics), encode(t, b.Metrics)) {
				t.Errorf("%s/%s: parallelism changed the metrics", sps[i].Name, a.Setup)
			}
		}
	}
}

// Re-running the same matrix — even from a freshly rebuilt suite, which
// allocates new Program values — must not simulate anything twice.
func TestUniquePairSimulatedOnce(t *testing.T) {
	setups := []sim.Setup{sim.SetupOP(2), sim.SetupOB(2)}
	opt := sim.RunOptions{NumUops: 3000}
	eng := engine.New(engine.Options{Parallelism: 4})

	first := workload.QuickSuite()[:3]
	if _, err := eng.RunMatrix(context.Background(), first, setups, opt); err != nil {
		t.Fatal(err)
	}
	want := int64(len(first) * len(setups))
	if st := eng.Stats(); st.Simulations != want {
		t.Fatalf("first pass: %d simulations, want %d", st.Simulations, want)
	}

	rebuilt := workload.QuickSuite()[:3] // fresh Program pointers, same content
	res, err := eng.RunMatrix(context.Background(), rebuilt, setups, opt)
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.Simulations != want {
		t.Errorf("second pass re-simulated: %d simulations, want %d", st.Simulations, want)
	}
	if st.ResultHits != want {
		t.Errorf("second pass: %d result hits, want %d", st.ResultHits, want)
	}
	for i, row := range res {
		for _, cell := range row {
			if cell.Simpoint != rebuilt[i] {
				t.Errorf("cached result must carry the caller's simpoint, not the original's")
			}
		}
	}
}

// A tweaked machine is only cacheable under an explicit TweakKey, and
// distinct keys never collide.
func TestMachineTweakCaching(t *testing.T) {
	tweak := func(cfg *pipeline.Config) { cfg.Cluster.IssueInt = 1 }
	job := quickJob("gzip-1", sim.SetupOP(2))
	job.Opts.MachineTweak = tweak

	eng := engine.New(engine.Options{Parallelism: 1})
	eng.Run(context.Background(), job)
	eng.Run(context.Background(), job)
	if st := eng.Stats(); st.Simulations != 2 || st.ResultHits != 0 {
		t.Errorf("un-keyed tweak must bypass the result cache: %+v", st)
	}

	job.Opts.TweakKey = "narrow-int"
	eng2 := engine.New(engine.Options{Parallelism: 1})
	keyed := eng2.Run(context.Background(), job)
	cached := eng2.Run(context.Background(), job)
	if st := eng2.Stats(); st.Simulations != 1 || st.ResultHits != 1 {
		t.Errorf("keyed tweak must cache: %+v", st)
	}
	if !bytes.Equal(encode(t, keyed.Metrics), encode(t, cached.Metrics)) {
		t.Error("keyed tweak: cached metrics differ")
	}

	// Same label, different tweak key: must re-simulate.
	job.Opts.TweakKey = "other"
	eng2.Run(context.Background(), job)
	if st := eng2.Stats(); st.Simulations != 2 {
		t.Errorf("distinct tweak keys must not collide: %+v", st)
	}
}

// Opaque Annotate closures have no content key and must bypass all caches.
func TestOpaqueAnnotateBypassesCache(t *testing.T) {
	setup := sim.SetupOP(2)
	setup.Label = "custom-op"
	setup.Annotate = func(p *prog.Program) {}
	eng := engine.New(engine.Options{Parallelism: 1})
	eng.Run(context.Background(), quickJob("crafty", setup))
	eng.Run(context.Background(), quickJob("crafty", setup))
	st := eng.Stats()
	if st.Simulations != 2 || st.ResultHits != 0 {
		t.Errorf("opaque pass must bypass the result cache: %+v", st)
	}
	if st.ProgramHits != 0 {
		t.Errorf("opaque pass must bypass the program cache: %+v", st)
	}
}

func TestStreamDeliversEverything(t *testing.T) {
	jobs := []engine.Job{
		quickJob("crafty", sim.SetupOP(2)),
		quickJob("crafty", sim.SetupVC(2, 2)),
		quickJob("gzip-1", sim.SetupOP(2)),
		quickJob("gzip-1", sim.SetupOP(2)), // duplicate: served from cache
	}
	eng := engine.New(engine.Options{Parallelism: 2})
	seen := map[int]bool{}
	for jr := range eng.Stream(context.Background(), jobs) {
		if jr.Result == nil || jr.Result.Err != nil {
			t.Fatalf("job %d: %+v", jr.Index, jr.Result)
		}
		if seen[jr.Index] {
			t.Errorf("job %d delivered twice", jr.Index)
		}
		seen[jr.Index] = true
	}
	if len(seen) != len(jobs) {
		t.Errorf("delivered %d results, want %d", len(seen), len(jobs))
	}
	if st := eng.Stats(); st.Simulations != 3 {
		t.Errorf("duplicate job not deduped: %+v", st)
	}
}

// A consumer may abandon a Stream without draining it; the senders must
// not block forever (the channel is buffered for every result).
func TestStreamAbandonedConsumerDoesNotLeak(t *testing.T) {
	jobs := []engine.Job{
		quickJob("crafty", sim.SetupOP(2)),
		quickJob("gzip-1", sim.SetupOP(2)),
		quickJob("mcf", sim.SetupOP(2)),
	}
	eng := engine.New(engine.Options{Parallelism: 2})
	ch := eng.Stream(context.Background(), jobs)
	<-ch // take one result, then walk away without draining
	deadline := time.Now().Add(60 * time.Second)
	for eng.Stats().Simulations < int64(len(jobs)) {
		if time.Now().After(deadline) {
			t.Fatal("remaining stream jobs never completed")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The channel still closes once all senders have deposited.
	for range ch {
	}
}

func TestCancellationBeforeRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng := engine.New(engine.Options{Parallelism: 1})
	res := eng.Run(ctx, quickJob("crafty", sim.SetupOP(2)))
	if res.Err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", res.Err)
	}
	if st := eng.Stats(); st.Simulations != 0 {
		t.Errorf("canceled job still simulated: %+v", st)
	}
	// A canceled result must not poison the cache: a live context after
	// cancellation re-runs and succeeds.
	ok := eng.Run(context.Background(), quickJob("crafty", sim.SetupOP(2)))
	if ok.Err != nil {
		t.Errorf("post-cancel run failed: %v", ok.Err)
	}
}

// A waiter with a live context must not inherit a canceled result from
// another caller's in-flight computation of the same job.
func TestCanceledFlightDoesNotPoisonLiveWaiter(t *testing.T) {
	eng := engine.New(engine.Options{Parallelism: 2})
	job := quickJob("crafty", sim.SetupOP(2))
	job.Opts.NumUops = 60_000

	ctxA, cancelA := context.WithCancel(context.Background())
	aDone := make(chan struct{})
	go func() { defer close(aDone); eng.Run(ctxA, job) }()
	time.Sleep(20 * time.Millisecond) // let A start its flight
	bDone := make(chan *engine.Result, 1)
	go func() { bDone <- eng.Run(context.Background(), job) }()
	time.Sleep(10 * time.Millisecond)
	cancelA()
	<-aDone
	select {
	case res := <-bDone:
		if res.Err != nil {
			t.Errorf("live-context waiter got %v; want a successful re-run", res.Err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("live-context waiter never returned")
	}
}

// A waiter whose own context is canceled while blocked on another
// caller's in-flight computation must return promptly with its ctx error.
func TestWaiterCancellationWhileFlightInProgress(t *testing.T) {
	eng := engine.New(engine.Options{Parallelism: 2})
	job := quickJob("mcf", sim.SetupVC(2, 2))
	job.Opts.NumUops = 200_000

	aDone := make(chan struct{})
	go func() { defer close(aDone); eng.Run(context.Background(), job) }()
	time.Sleep(30 * time.Millisecond) // let A's flight start
	ctxB, cancelB := context.WithCancel(context.Background())
	bDone := make(chan *engine.Result, 1)
	go func() { bDone <- eng.Run(ctxB, job) }()
	time.Sleep(10 * time.Millisecond)
	start := time.Now()
	cancelB()
	select {
	case res := <-bDone:
		if res.Err == nil {
			t.Log("B finished before cancellation (fast machine); nothing to assert")
		} else if wait := time.Since(start); wait > 5*time.Second {
			t.Errorf("canceled waiter took %v to return", wait)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("canceled waiter never returned")
	}
	<-aDone
}

// Setups sharing a label but carrying different pass parameters must not
// alias in the result cache.
func TestLabelCollisionDifferentPassDoesNotAlias(t *testing.T) {
	a := sim.SetupVC(2, 2)
	b := sim.SetupVCChain(2, 2, 8)
	b.Label = a.Label // simulate a user label collision
	eng := engine.New(engine.Options{Parallelism: 1})
	opts := sim.RunOptions{NumUops: 3000}
	sp := workload.ByName("crafty")
	eng.Run(context.Background(), engine.Job{Simpoint: sp, Setup: a, Opts: opts})
	eng.Run(context.Background(), engine.Job{Simpoint: sp, Setup: b, Opts: opts})
	if st := eng.Stats(); st.Simulations != 2 || st.ResultHits != 0 {
		t.Errorf("label collision aliased different passes: %+v", st)
	}
}

// Two different programs sharing name, seed and shape must not alias in
// the caches: the fingerprint hashes content, not just structure.
func TestDistinctProgramsDoNotAlias(t *testing.T) {
	base := workload.ByName("crafty")
	variant := &workload.Simpoint{
		Name: base.Name, Bench: base.Bench, Weight: base.Weight,
		Program: base.Program.Clone(), Seed: base.Seed,
	}
	// Flip one op's branch bias: same block/op counts, different behavior.
	mutated := false
	for _, b := range variant.Program.Blocks {
		for i := range b.Ops {
			if b.Ops[i].TakenProb > 0 && !mutated {
				b.Ops[i].TakenProb = 1 - b.Ops[i].TakenProb
				mutated = true
			}
		}
	}
	if !mutated {
		t.Fatal("no branch op found to mutate")
	}
	eng := engine.New(engine.Options{Parallelism: 1})
	opts := sim.RunOptions{NumUops: 3000}
	a := eng.Run(context.Background(), engine.Job{Simpoint: base, Setup: sim.SetupOP(2), Opts: opts})
	b := eng.Run(context.Background(), engine.Job{Simpoint: variant, Setup: sim.SetupOP(2), Opts: opts})
	if a.Err != nil || b.Err != nil {
		t.Fatalf("errs: %v %v", a.Err, b.Err)
	}
	if st := eng.Stats(); st.Simulations != 2 || st.ResultHits != 0 {
		t.Errorf("distinct programs aliased in the cache: %+v", st)
	}
}

func TestCancellationMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	job := quickJob("mcf", sim.SetupVC(2, 2))
	job.Opts.NumUops = 500_000 // long enough to be mid-flight when canceled
	eng := engine.New(engine.Options{Parallelism: 1})

	done := make(chan *engine.Result, 1)
	start := time.Now()
	go func() { done <- eng.Run(ctx, job) }()
	time.Sleep(30 * time.Millisecond)
	cancel()
	select {
	case res := <-done:
		if res.Err == nil {
			t.Log("run finished before cancellation took effect (slow machine?)")
		} else if res.Metrics != nil && res.Metrics.Uops >= int64(job.Opts.NumUops) {
			t.Error("canceled run claims full completion")
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("cancellation did not unblock the run (waited %v)", time.Since(start))
	}
}
