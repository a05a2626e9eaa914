package main

import (
	"context"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"clustersim/internal/engine"
)

// request is one scheduled single-job call of the interactive phase.
type request struct {
	// Due is when the request is to be sent, from the phase start.
	Due time.Duration
	Job engine.Job
	// Hit marks a repeat of a hot-set job; a miss uses a trace length
	// no earlier request used, so it has to simulate.
	Hit bool
	// LowIPC marks a miss of one of lowIPCPrograms.
	LowIPC bool
}

// Miss trace lengths are drawn without replacement from this range; it
// lies below the regeneration trace length, so no miss can hit.
const (
	missUopsLo = 2000
	missUopsHi = 3000
)

// A run's interactive phase sends hitsPerRun hot-set requests,
// missesPerJob misses per hot job of a missPrograms program and
// lowIPCMissesPerJob per hot job of a lowIPCPrograms program. The mix is
// chosen, not taken from a record of users: mostly repeats, as an
// interactive user exploring a few results would send, with enough
// misses of each kind for a steady median.
const (
	hitsPerRun         = 1400
	missesPerJob       = 12
	lowIPCMissesPerJob = 2
)

// Misses are of two kinds, reported apart. A miss of missPrograms costs
// 4-6 ms on a 2-vCPU Xeon VM. The quick suite's other three programs run
// below IPC 0.1, so their host time follows their many simulated cycles
// and a miss costs 4-8x more; mixed into one sample, they put the median
// miss on the edge between two clusters, where it jumps between runs.
var (
	missPrograms   = map[string]bool{"gzip-1": true, "crafty": true, "galgel": true, "art-1": true, "swim": true}
	lowIPCPrograms = map[string]bool{"gcc-1": true, "mcf": true, "ammp": true}
)

// schedule builds the seeded open-loop arrival schedule, spread over
// about span at one fixed mean rate (a chosen rate: the same offered load
// on every build, so a faster build shows as lower latency rather than
// drawing more traffic), with inter-arrival gaps uniform in
// [0.5, 1.5) of the mean. Every seed sends the same mix: hits cycle
// evenly through the hot set, and each hot job spawns its kind's number
// of misses, whose trace lengths are spread evenly over the miss range
// and distinct from each other. The seed shuffles the order, offsets
// the miss trace lengths and draws the gaps.
func schedule(seed int64, hot []engine.Job, span time.Duration) []request {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]request, 0, hitsPerRun)
	for i := 0; i < hitsPerRun; i++ {
		reqs = append(reqs, request{Job: hot[i%len(hot)], Hit: true})
	}
	var misses []request
	add := func(programs map[string]bool, perJob int, lowIPC bool) {
		for j := 0; j < perJob; j++ {
			for _, job := range hot {
				if programs[job.Simpoint.Name] {
					misses = append(misses, request{Job: job, LowIPC: lowIPC})
				}
			}
		}
	}
	add(missPrograms, missesPerJob, false)
	add(lowIPCPrograms, lowIPCMissesPerJob, true)
	stride := (missUopsHi - missUopsLo) / len(misses)
	off := rng.Intn(stride)
	for i := range misses {
		misses[i].Job.Opts.NumUops = missUopsLo + i*stride + off
	}
	reqs = append(reqs, misses...)
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	var due time.Duration
	gap := float64(span) / float64(len(reqs))
	for i := range reqs {
		due += time.Duration(gap * (0.5 + rng.Float64()))
		reqs[i].Due = due
	}
	return reqs
}

// sample is the outcome of one request.
type sample struct {
	Hit, LowIPC bool
	// Latency runs from the request's due time to its result in hand;
	// Late is how long after its due time the request was sent.
	Latency, Late time.Duration
	Result        *engine.Result
}

// spinWindow is how long before a due time the generator stops sleeping
// and polls the clock instead, so timer slack does not make it late.
const spinWindow = 2 * time.Millisecond

// openLoop sends every request at its due time, whether or not earlier
// ones have finished, holding at most maxInFlight in flight; a request
// that finds every slot busy is sent late, and its latency still counts
// from its due time. It returns one sample per request, in order.
func openLoop(ctx context.Context, r engine.Runner, reqs []request, maxInFlight int) []sample {
	out := make([]sample, len(reqs))
	slots := make(chan struct{}, maxInFlight)
	var wg sync.WaitGroup
	start := time.Now()
	for i, req := range reqs {
		due := start.Add(req.Due)
		if d := time.Until(due) - spinWindow; d > 0 {
			time.Sleep(d)
		}
		for time.Now().Before(due) {
			runtime.Gosched()
		}
		slots <- struct{}{}
		sent := time.Now()
		wg.Add(1)
		go func(i int, req request) {
			defer wg.Done()
			res := r.Run(ctx, req.Job)
			out[i] = sample{Hit: req.Hit, LowIPC: req.LowIPC, Latency: time.Since(due), Late: sent.Sub(due), Result: res}
			<-slots
		}(i, req)
	}
	wg.Wait()
	return out
}

// closedLoop is one caller sending the requests in order, each as soon as
// the previous one returned — a program calling a local engine. Each
// latency is the call's own duration.
func closedLoop(ctx context.Context, r engine.Runner, reqs []request) []sample {
	out := make([]sample, len(reqs))
	for i, req := range reqs {
		t0 := time.Now()
		res := r.Run(ctx, req.Job)
		out[i] = sample{Hit: req.Hit, LowIPC: req.LowIPC, Latency: time.Since(t0), Result: res}
	}
	return out
}

// lateP99 returns the 99th-percentile send lateness in milliseconds.
func lateP99(ss []sample) float64 {
	ms := make([]float64, len(ss))
	for i, s := range ss {
		ms[i] = float64(s.Late) / float64(time.Millisecond)
	}
	sort.Float64s(ms)
	return quantile(ms, 0.99)
}
