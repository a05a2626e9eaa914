package main

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"clustersim/internal/engine"
)

func TestScheduleIsSeeded(t *testing.T) {
	hot := hotSet(3000)
	a := schedule(7, hot, 10*time.Second)
	b := schedule(7, hotSet(3000), 10*time.Second)
	type view struct {
		Due        int64
		Name, Conf string
		Uops       int
		Hit        bool
	}
	flat := func(rs []request) []view {
		out := make([]view, len(rs))
		for i, r := range rs {
			out[i] = view{int64(r.Due), r.Job.Simpoint.Name, r.Job.Setup.Label, r.Job.Opts.NumUops, r.Hit}
		}
		return out
	}
	if !reflect.DeepEqual(flat(a), flat(b)) {
		t.Fatal("the same seed gave different specs or due times")
	}
	if reflect.DeepEqual(flat(a), flat(schedule(8, hot, 10*time.Second))) {
		t.Fatal("different seeds gave the same schedule")
	}
}

func TestScheduleShape(t *testing.T) {
	const span = 20 * time.Second
	hot := hotSet(3000)
	reqs := schedule(3, hot, span)
	n := hitsPerRun + (missesPerJob*len(missPrograms)+lowIPCMissesPerJob*len(lowIPCPrograms))*5
	if len(reqs) != n {
		t.Fatalf("%d requests, want %d", len(reqs), n)
	}
	seen := map[int]bool{}
	perJob := map[string]int{}
	lowIPC := map[string]bool{}
	for i, r := range reqs {
		if i > 0 && r.Due <= reqs[i-1].Due {
			t.Fatalf("due times not increasing at %d", i)
		}
		if r.Hit {
			if r.Job.Opts.NumUops != 3000 {
				t.Fatalf("hit %d at %d uops", i, r.Job.Opts.NumUops)
			}
			continue
		}
		u := r.Job.Opts.NumUops
		if u < missUopsLo || u >= missUopsHi || seen[u] {
			t.Fatalf("miss %d has trace length %d (repeated or out of range)", i, u)
		}
		seen[u] = true
		if r.LowIPC != lowIPCPrograms[r.Job.Simpoint.Name] {
			t.Fatalf("miss %d of %s marked LowIPC %v", i, r.Job.Simpoint.Name, r.LowIPC)
		}
		key := r.Job.Simpoint.Name + "/" + r.Job.Setup.Label
		perJob[key]++
		lowIPC[key] = r.LowIPC
	}
	if len(perJob) != len(hot) {
		t.Errorf("misses cover %d hot jobs, want all %d", len(perJob), len(hot))
	}
	for job, k := range perJob {
		want := missesPerJob
		if lowIPC[job] {
			want = lowIPCMissesPerJob
		}
		if k != want {
			t.Errorf("%s: %d misses, want %d", job, k, want)
		}
	}
	if got := reqs[n-1].Due; got < span*9/10 || got > span*11/10 {
		t.Errorf("schedule spans %v, want about %v", got, span)
	}
}

// capRunner answers every job after a short wait and records the largest
// number of calls it saw in flight at once.
type capRunner struct {
	engine.Runner
	mu             sync.Mutex
	inFlight, peak int
	calls          int
}

func (c *capRunner) Run(ctx context.Context, job engine.Job) *engine.Result {
	c.mu.Lock()
	c.inFlight++
	c.calls++
	c.peak = max(c.peak, c.inFlight)
	c.mu.Unlock()
	time.Sleep(2 * time.Millisecond)
	c.mu.Lock()
	c.inFlight--
	c.mu.Unlock()
	return &engine.Result{Simpoint: job.Simpoint, Setup: job.Setup.Label}
}

func TestOpenLoopHoldsTheInFlightCap(t *testing.T) {
	// At 2000 requests/s against 2 ms calls the schedule outruns two
	// slots, so the cap is what bounds concurrency.
	reqs := schedule(1, hotSet(3000), 850*time.Millisecond)
	r := &capRunner{}
	ss := openLoop(context.Background(), r, reqs, 2)
	if r.calls != len(reqs) || len(ss) != len(reqs) {
		t.Fatalf("%d calls, %d samples for %d requests", r.calls, len(ss), len(reqs))
	}
	if r.peak > 2 {
		t.Fatalf("%d requests in flight, cap 2", r.peak)
	}
	for i, s := range ss {
		if s.Result == nil || s.Hit != reqs[i].Hit || s.LowIPC != reqs[i].LowIPC || s.Latency < s.Late {
			t.Fatalf("sample %d: %+v", i, s)
		}
	}
	if lateP99(ss) <= 0 {
		t.Error("an overloaded generator reported no lateness")
	}
}
