package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"clustersim/internal/pipeline"
	"clustersim/internal/prog"
	"clustersim/internal/workload"
)

// A panicking computation must unblock waiters and leave the key usable.
func TestFlightPanicDoesNotPoisonKey(t *testing.T) {
	c := newFlightCache[int](0)
	waited := make(chan int, 1)
	started := make(chan struct{})
	go func() {
		defer func() { recover() }()
		c.get(nil, "k", func() (int, bool) {
			close(started)
			time.Sleep(20 * time.Millisecond)
			panic("boom")
		})
	}()
	<-started
	go func() {
		v, _, _ := c.get(nil, "k", func() (int, bool) { return 42, true })
		waited <- v
	}()
	select {
	case v := <-waited:
		// The waiter either observed the zero value from the panicked
		// flight or recomputed; either way the key must not deadlock, and
		// a fresh get must recompute successfully.
		_ = v
	case <-time.After(10 * time.Second):
		t.Fatal("waiter deadlocked on a panicked flight")
	}
	v, cached, _ := c.get(nil, "k", func() (int, bool) { return 7, true })
	if cached && v != 7 && v != 42 {
		t.Fatalf("poisoned key: v=%d cached=%v", v, cached)
	}
}

// A waiter whose abort channel fires must return promptly, not wait for
// the in-flight computation.
func TestFlightAbortWhileWaiting(t *testing.T) {
	c := newFlightCache[int](0)
	release := make(chan struct{})
	started := make(chan struct{})
	go func() {
		c.get(nil, "k", func() (int, bool) {
			close(started)
			<-release
			return 1, true
		})
	}()
	<-started
	abort := make(chan struct{})
	close(abort)
	done := make(chan struct{})
	go func() {
		_, cached, aborted := c.get(abort, "k", func() (int, bool) { return 2, true })
		if cached || !aborted {
			t.Errorf("want aborted wait, got cached=%v aborted=%v", cached, aborted)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("aborted waiter did not return")
	}
	close(release)
}

// LRU eviction drops the oldest completed entries only.
func TestFlightLRUEviction(t *testing.T) {
	c := newFlightCache[int](2)
	c.get(nil, "a", func() (int, bool) { return 1, true })
	c.get(nil, "b", func() (int, bool) { return 2, true })
	c.get(nil, "a", func() (int, bool) { return -1, true }) // touch a
	c.get(nil, "c", func() (int, bool) { return 3, true })  // evicts b
	if _, cached, _ := c.get(nil, "a", func() (int, bool) { return -1, true }); !cached {
		t.Error("recently used entry evicted")
	}
	if _, cached, _ := c.get(nil, "b", func() (int, bool) { return -2, true }); cached {
		t.Error("least recently used entry survived past the cap")
	}
}

// The annotated-program cache is bounded by entry count: every distinct
// region size a client asks for is a new pass signature, and so a new key,
// yet the cache never holds more than maxPrograms of them, and a program
// evicted on the way re-annotates into a byte-identical clone.
func TestProgramCacheBounded(t *testing.T) {
	e := New(Options{Parallelism: 1})
	sp := workload.ByName("crafty")
	cfg := pipeline.DefaultConfig(2)
	setup := func(regionMaxOps int) *resolved {
		rs, err := resolve(SetupSpec{Kind: "OB", NumClusters: 2, RegionMaxOps: regionMaxOps})
		if err != nil {
			t.Fatal(err)
		}
		return &rs
	}
	encode := func(p *prog.Program) []byte {
		blob, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	first := e.annotated(sp, setup(1), &cfg)
	want := encode(first)
	for rg := 2; rg <= maxPrograms+64; rg++ {
		e.annotated(sp, setup(rg), &cfg)
	}
	if n := len(e.progs.entries); n > maxPrograms {
		t.Fatalf("program cache holds %d entries, bound is %d", n, maxPrograms)
	}
	misses := e.progs.misses.Load()
	again := e.annotated(sp, setup(1), &cfg)
	if e.progs.misses.Load() != misses+1 || again == first {
		t.Fatal("least recently used program was not evicted")
	}
	if !bytes.Equal(encode(again), want) {
		t.Error("evicted program re-annotated differently")
	}
}

// The whole-result cache is bounded by entry count: every distinct run
// option a client sends is a new result key, yet the cache never holds
// more than maxResults of them, and a result evicted on the way
// re-simulates into byte-identical bytes.
func TestResultCacheBounded(t *testing.T) {
	e := New(Options{Parallelism: 2})
	sp := workload.ByName("gzip-1")
	job := func(i int) Job {
		return Job{Simpoint: sp,
			Setup: Setup{SetupSpec: SetupSpec{Kind: "OP", NumClusters: 2}, Label: "OP"},
			Opts:  RunOptions{NumUops: 200 + i/100, WarmupUops: i % 100}}
	}
	encode := func(r *Result) []byte {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		blob, err := EncodeResult(r)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	ctx := context.Background()
	want := encode(e.Run(ctx, job(0)))
	jobs := make([]Job, maxResults+63)
	for i := range jobs {
		jobs[i] = job(i + 1)
	}
	for jr := range e.Stream(ctx, jobs) {
		if jr.Result.Err != nil {
			t.Fatal(jr.Result.Err)
		}
	}
	if n := len(e.results.entries); n > maxResults {
		t.Fatalf("result cache holds %d entries, bound is %d", n, maxResults)
	}
	sims := e.Stats().Simulations
	if !bytes.Equal(encode(e.Run(ctx, job(0))), want) {
		t.Error("evicted result re-simulated differently")
	}
	if e.Stats().Simulations != sims+1 {
		t.Error("least recently used result was not evicted")
	}
}

// Idle pooled cores are bounded by Parallelism in total, however many
// machine shapes the jobs cycle through, and the pool keeps the cores
// released most recently.
func TestCorePoolBoundedAcrossShapes(t *testing.T) {
	const par = 2
	e := New(Options{Parallelism: par})
	sp := workload.ByName("gzip-1")
	job := func(iq int) Job {
		return Job{Simpoint: sp,
			Setup: Setup{SetupSpec: SetupSpec{Kind: "OP", NumClusters: 2}, Label: "OP"},
			Opts:  RunOptions{NumUops: 300, Machine: MachineSpec{IQ: iq}}}
	}
	idle := func() int {
		e.coresMu.Lock()
		defer e.coresMu.Unlock()
		return len(e.idle)
	}
	ctx := context.Background()
	const shapes = 3 * par
	for iq := 10; iq < 10+shapes; iq++ {
		if res := e.Run(ctx, job(iq)); res.Err != nil {
			t.Fatal(res.Err)
		}
		if n := idle(); n > par {
			t.Fatalf("after shape iq=%d the pool holds %d idle cores, bound %d", iq, n, par)
		}
	}
	jobs := make([]Job, 0, 4*shapes)
	for i := 0; i < 4*shapes; i++ {
		jobs = append(jobs, job(100+i%shapes))
	}
	for jr := range e.Stream(ctx, jobs) {
		if jr.Result.Err != nil {
			t.Fatal(jr.Result.Err)
		}
		if n := idle(); n > par {
			t.Fatalf("concurrent run: the pool holds %d idle cores, bound %d", n, par)
		}
	}
	// Sequentially through three fresh shapes A, B, C: releasing C drops
	// A, the least recently released, so B is still pooled and A is not.
	for _, iq := range []int{200, 201, 202} {
		e.Run(ctx, job(iq))
	}
	st := e.Stats()
	for _, iq := range []int{201, 200} {
		j := job(iq)
		j.Opts.WarmupUops = 1 // a new result key on the same shape
		e.Run(ctx, j)
	}
	got := e.Stats()
	if got.CorePoolHits != st.CorePoolHits+1 || got.CorePoolMisses != st.CorePoolMisses+1 {
		t.Errorf("pool hits %d -> %d, misses %d -> %d: want B pooled and A evicted",
			st.CorePoolHits, got.CorePoolHits, st.CorePoolMisses, got.CorePoolMisses)
	}
}
