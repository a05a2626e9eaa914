package engine_test

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"clustersim/internal/engine"
	"clustersim/internal/obs"
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

// An override knob set to its Table 2 value keys exactly like no
// override, alone or together with the others, so such a job shares the
// Table 2 machine's results.
func TestMachineOverrideTable2KeysAsNone(t *testing.T) {
	eng := engine.New(engine.Options{Parallelism: 1})
	for _, setup := range []sim.Setup{sim.SetupVC(2, 2), sim.SetupOB(4)} {
		base := quickJob("gzip-1", setup)
		want, ok := eng.ResultKey(base)
		if !ok {
			t.Fatalf("%s: no result key", setup.Label)
		}
		for _, m := range []engine.MachineSpec{
			{LinkLatency: 1}, {Topology: "p2p"}, {LinkBandwidth: 1}, {CopyIssue: 1},
			{IQ: 48}, {PrefetchDegree: 4},
			{LinkLatency: 1, Topology: "p2p", LinkBandwidth: 1, CopyIssue: 1,
				IQ: 48, PrefetchDegree: 4},
		} {
			job := base
			job.Opts.Machine = m
			if got, ok := eng.ResultKey(job); !ok || got != want {
				t.Errorf("%s %+v: key %q (%v), want the Table 2 key %q", setup.Label, m, got, ok, want)
			}
		}
	}
}

// A ring of two clusters is their one point-to-point link, so on two
// clusters the topology knob resolves away and keys like no override;
// on four it keys apart.
func TestRingOnTwoClustersKeysAsNone(t *testing.T) {
	eng := engine.New(engine.Options{Parallelism: 1})
	for _, c := range []struct {
		setup sim.Setup
		same  bool
	}{{sim.SetupVC(2, 2), true}, {sim.SetupOB(2), true}, {sim.SetupOB(4), false}} {
		job := quickJob("gzip-1", c.setup)
		want, _ := eng.ResultKey(job)
		job.Opts.Machine = engine.MachineSpec{Topology: "ring"}
		if got, ok := eng.ResultKey(job); !ok || (got == want) != c.same {
			t.Errorf("%s ring: key %q (%v), Table 2 key %q, want same=%v", c.setup.Label, got, ok, want, c.same)
		}
	}
}

// Distinct resolved machines never share a key, and every spelling of
// one machine shares one.
func TestMachineOverrideKeysDistinct(t *testing.T) {
	machines := [][]engine.MachineSpec{
		{{LinkLatency: 2}, {LinkLatency: 2, IQ: 48}},
		{{LinkLatency: 8}},
		{{Topology: "ring"}, {Topology: "ring", PrefetchDegree: 4}},
		{{LinkBandwidth: 2}},
		{{LinkBandwidth: 4}},
		{{CopyIssue: 2}},
		{{CopyIssue: 4}},
		{{IQ: 24}, {IQ: 24, CopyIssue: 1}},
		{{IQ: 96}},
		{{PrefetchDegree: engine.PrefetchOff}},
		{{PrefetchDegree: 8}},
		{{IQ: 24, LinkLatency: 8}},
		{{IQ: 96, PrefetchDegree: engine.PrefetchOff}},
		{{CopyIssue: 2, LinkBandwidth: 2}},
		{{CopyIssue: 4, LinkBandwidth: 4}},
		{{LinkLatency: 2, Topology: "ring"}},
		{{LinkLatency: 8, Topology: "ring", PrefetchDegree: engine.PrefetchOff}},
		{{LinkLatency: 2, LinkBandwidth: 2, CopyIssue: 2, IQ: 24,
			Topology: "ring", PrefetchDegree: 8}},
	}
	eng := engine.New(engine.Options{Parallelism: 1})
	base := quickJob("gzip-1", sim.SetupVC(2, 4))
	table2, _ := eng.ResultKey(base)
	seen := map[string]int{table2: -1}
	for i, spellings := range machines {
		var first string
		for j, m := range spellings {
			job := base
			job.Opts.Machine = m
			key, ok := eng.ResultKey(job)
			if !ok {
				t.Fatalf("%+v: no result key", m)
			}
			if j == 0 {
				first = key
				if prev, dup := seen[key]; dup {
					t.Errorf("machine %d %+v shares key %q with machine %d", i, m, key, prev)
				}
				seen[key] = i
			} else if key != first {
				t.Errorf("%+v keys %q, another spelling of it keys %q", m, key, first)
			}
		}
	}
}

// A Table 2 override is served the Table 2 result; any other machine
// simulates once and is then cached under its own key.
func TestMachineOverrideCaching(t *testing.T) {
	eng := engine.New(engine.Options{Parallelism: 1})
	ctx := context.Background()
	base := quickJob("gzip-1", sim.SetupVC(2, 2))
	ref := eng.Run(ctx, base)
	same := base
	same.Opts.Machine = engine.MachineSpec{LinkLatency: 1, IQ: 48}
	if got := eng.Run(ctx, same); got.Err != nil || !bytes.Equal(encode(t, got.Metrics), encode(t, ref.Metrics)) {
		t.Errorf("Table 2 override: %v, or metrics differ from the Table 2 run", got.Err)
	}
	if st := eng.Stats(); st.Simulations != 1 || st.ResultHits != 1 {
		t.Errorf("Table 2 override must hit the Table 2 result: %+v", st)
	}
	slow := base
	slow.Opts.Machine = engine.MachineSpec{LinkLatency: 4}
	a, b := eng.Run(ctx, slow), eng.Run(ctx, slow)
	if st := eng.Stats(); st.Simulations != 2 || st.ResultHits != 2 {
		t.Errorf("latency-4 machine must simulate once, then hit: %+v", st)
	}
	if a.Err != nil || b.Err != nil || a.Metrics.Cycles <= ref.Metrics.Cycles {
		t.Errorf("latency-4 machine: %v %v, %d cycles vs Table 2's %d",
			a.Err, b.Err, a.Metrics.Cycles, ref.Metrics.Cycles)
	}
}

// An out-of-bound knob fails the run before anything is simulated, and
// the job has no result key.
func TestInvalidMachineFailsRun(t *testing.T) {
	eng := engine.New(engine.Options{Parallelism: 1})
	for _, m := range badMachines {
		job := quickJob("crafty", sim.SetupOP(2))
		job.Opts.Machine = m
		if res := eng.Run(context.Background(), job); res.Err == nil {
			t.Errorf("%+v: run succeeded", m)
		}
		if _, ok := eng.ResultKey(job); ok {
			t.Errorf("%+v: has a result key", m)
		}
		if err := job.Validate(); err == nil {
			t.Errorf("%+v: Validate accepted it", m)
		}
	}
	if st := eng.Stats(); st.Simulations != 0 {
		t.Errorf("invalid machines simulated: %+v", st)
	}
}

// badMachines has every knob just past each of its bounds.
var badMachines = []engine.MachineSpec{
	{LinkLatency: -1}, {LinkLatency: 65},
	{Topology: "mesh"}, {Topology: "RING"},
	{LinkBandwidth: -1}, {LinkBandwidth: 17},
	{CopyIssue: -1}, {CopyIssue: 17},
	{IQ: -1}, {IQ: 513},
	{PrefetchDegree: -2}, {PrefetchDegree: 17},
}

// Histogram tracking is part of the result key: a caching engine never
// serves a histogram-less result to a histogram run, nor the reverse.
func TestHistogramRunsKeyedApart(t *testing.T) {
	ctx := context.Background()
	plain := quickJob("gzip-1", sim.SetupOP(2))
	hist := plain
	hist.Opts.TrackHistograms = true
	for _, order := range [][]engine.Job{{plain, hist, plain, hist}, {hist, plain, hist, plain}} {
		eng := engine.New(engine.Options{Parallelism: 1})
		for _, job := range order {
			res := eng.Run(ctx, job)
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			if got := res.Metrics.Histograms != nil; got != job.Opts.TrackHistograms {
				t.Errorf("histograms present = %v, want %v", got, job.Opts.TrackHistograms)
			}
		}
		if st := eng.Stats(); st.Simulations != 2 || st.ResultHits != 2 {
			t.Errorf("want one simulation per variant, then hits: %+v", st)
		}
	}
}

// A negative run size fails its job with an error on every engine path,
// cached, uncached and streamed, instead of panicking the trace
// expansion, and such a job has no result key.
func TestNegativeRunSizeFailsRun(t *testing.T) {
	ctx := context.Background()
	eng := engine.New(engine.Options{Parallelism: 1})
	for _, opts := range []sim.RunOptions{{NumUops: -1}, {NumUops: 2000, WarmupUops: -1}} {
		job := engine.Job{Simpoint: workload.ByName("gzip-1"), Setup: sim.SetupOP(2), Opts: opts}
		if res := eng.Run(ctx, job); res.Err == nil {
			t.Errorf("%+v: cached run succeeded", opts)
		}
		if res := engine.Execute(ctx, job); res.Err == nil {
			t.Errorf("%+v: uncached run succeeded", opts)
		}
		for jr := range eng.Stream(ctx, []engine.Job{job}) {
			if jr.Result.Err == nil {
				t.Errorf("%+v: streamed run succeeded", opts)
			}
		}
		if _, ok := engine.ResultKey(job); ok {
			t.Errorf("%+v: job has a result key", opts)
		}
	}
	if st := eng.Stats(); st.Simulations != 0 {
		t.Errorf("negative sizes reached the pipeline: %+v", st)
	}
}

// A setup whose spec the resolver rejects fails its run with the
// resolver's error: nothing is annotated or simulated (a negative num_vc
// would otherwise size the VC pass's tables negative and panic), and the
// job has no result key.
func TestInvalidSetupFailsRun(t *testing.T) {
	eng := engine.New(engine.Options{Parallelism: 1})
	for _, setup := range []sim.Setup{
		sim.SetupVC(-1, 2), sim.SetupVCComm(-1, 2), sim.SetupOB(-1),
		sim.SetupVCChain(2, 2, -3), sim.SetupScoped("RHOP", 2, -1),
		sim.SetupScoped("OP", 2, 16), sim.SetupKind("WAT", 2),
	} {
		job := quickJob("crafty", setup)
		if res := eng.Run(context.Background(), job); res.Err == nil {
			t.Errorf("%s: invalid setup ran", setup.Label)
		}
		if _, ok := eng.ResultKey(job); ok {
			t.Errorf("%s: invalid setup has a result key", setup.Label)
		}
	}
	if st := eng.Stats(); st.Simulations != 0 || st.ProgramMisses != 0 {
		t.Errorf("invalid setups reached the pipeline: %+v", st)
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

// Stream traces job i of a batch as obs.JobTraceID(base, i) when the
// context carries the base, and lets each job mint its own trace ID when
// it does not.
func TestStreamTraceIDs(t *testing.T) {
	jobs := []engine.Job{
		quickJob("crafty", sim.SetupOP(2)),
		quickJob("gzip-1", sim.SetupOP(2)),
	}
	tracer := obs.NewTracer(16)
	eng := engine.New(engine.Options{Parallelism: 2, Tracer: tracer})
	for range eng.Stream(obs.WithTraceID(context.Background(), "batch"), jobs) {
	}
	for i, id := range []string{"batch.0", "batch.1"} {
		rec, ok := tracer.Lookup(id)
		if want := jobs[i].Simpoint.Name + "/" + jobs[i].Setup.Label; !ok || rec.Label != want {
			t.Errorf("flight %s = %+v (found %v), want label %s", id, rec, ok, want)
		}
	}

	for range eng.Stream(context.Background(), jobs) {
	}
	recs := tracer.Records()
	if len(recs) != 2*len(jobs) {
		t.Fatalf("%d flights recorded, want %d", len(recs), 2*len(jobs))
	}
	ids := map[string]bool{}
	for _, rec := range recs[len(jobs):] {
		if !obs.ValidTraceID(rec.ID) || strings.HasPrefix(rec.ID, "batch") || ids[rec.ID] {
			t.Errorf("flight without a base has ID %q (seen: %v)", rec.ID, ids)
		}
		ids[rec.ID] = true
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
