package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
	"time"

	"clustersim/internal/engine"
	"clustersim/internal/experiments"
)

// experiment is one section of the paper's evaluation, rendered exactly
// as steerbench prints it.
type experiment struct {
	name string
	run  func(experiments.Options) (string, error)
}

func render[R interface{ Render() string }](f func(experiments.Options) (R, error)) func(experiments.Options) (string, error) {
	return func(o experiments.Options) (string, error) {
		r, err := f(o)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	}
}

// allExperiments is everything `steerbench -exp all` runs, in its order.
var allExperiments = []experiment{
	{"table2", func(experiments.Options) (string, error) { return experiments.Table2(), nil }},
	{"table3", func(experiments.Options) (string, error) { return experiments.Table3(), nil }},
	{"table1", render(experiments.Table1)},
	{"fig5", render(experiments.Fig5)},
	{"fig6", render(experiments.Fig6)},
	{"fig7", render(experiments.Fig7)},
	{"policyspace", render(experiments.PolicySpace)},
	{"ablation", ablations},
}

// wireExperiments are the experiments whose jobs all have a declarative
// wire form, so they can run on clusterd; the ablations' machine tweaks
// cannot travel.
var wireExperiments = allExperiments[2:6]

// ablations renders every ablation sweep in steerbench's order.
func ablations(o experiments.Options) (string, error) {
	one := func(f func(experiments.Options) (*experiments.AblationResult, error)) func(experiments.Options) ([]*experiments.AblationResult, error) {
		return func(o experiments.Options) ([]*experiments.AblationResult, error) {
			r, err := f(o)
			return []*experiments.AblationResult{r}, err
		}
	}
	sweeps := []func(experiments.Options) ([]*experiments.AblationResult, error){
		one(experiments.AblationChainLen),
		one(experiments.AblationNumVC),
		experiments.AblationLinkLatency,
		experiments.AblationIQSize,
		experiments.AblationRegionScope,
		one(experiments.AblationStallOverSteer),
		experiments.AblationCopyBandwidth,
		experiments.AblationVCComm,
		experiments.AblationTopology,
		one(experiments.AblationPrefetch),
	}
	var parts []string
	for _, sweep := range sweeps {
		rs, err := sweep(o)
		if err != nil {
			return "", err
		}
		for _, r := range rs {
			parts = append(parts, r.Render())
		}
	}
	return strings.Join(parts, "\n"), nil
}

// digest is the pinned form of a rendered section.
func digest(text string) string {
	sum := sha256.Sum256([]byte(text))
	return hex.EncodeToString(sum[:])
}

// teeRunner passes jobs through to a runner and keeps every result, so a
// pass can be checked and its simulated work counted.
type teeRunner struct {
	engine.Runner
	mu      sync.Mutex
	results []engine.JobResult
}

func (t *teeRunner) keep(jr engine.JobResult) {
	t.mu.Lock()
	t.results = append(t.results, jr)
	t.mu.Unlock()
}

func (t *teeRunner) Run(ctx context.Context, job engine.Job) *engine.Result {
	res := t.Runner.Run(ctx, job)
	t.keep(engine.JobResult{Job: job, Result: res})
	return res
}

func (t *teeRunner) Stream(ctx context.Context, jobs []engine.Job) <-chan engine.JobResult {
	in := t.Runner.Stream(ctx, jobs)
	out := make(chan engine.JobResult, len(jobs))
	go func() {
		defer close(out)
		for jr := range in {
			t.keep(jr)
			out <- jr
		}
	}()
	return out
}

// passResult is one regeneration of a set of experiments.
type passResult struct {
	wall     time.Duration            // the experiments' times, summed
	sections map[string]time.Duration // per-experiment wall time
	windows  [][2]time.Time           // [start, end) of each experiment
	texts    map[string]string
	results  []engine.JobResult
	failed   int // jobs that returned an error
}

// regenerate runs the experiments once over r, as steerbench does. A
// non-nil between runs after each experiment, outside the pass's time.
func regenerate(ctx context.Context, r engine.Runner, exps []experiment, uops int, between func() error) (*passResult, error) {
	tee := &teeRunner{Runner: r}
	opt := experiments.Options{NumUops: uops, Quick: true, Runner: tee, Context: ctx}
	p := &passResult{sections: map[string]time.Duration{}, texts: map[string]string{}}
	for _, e := range exps {
		t0 := time.Now()
		text, err := e.run(opt)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.name, err)
		}
		t1 := time.Now()
		p.sections[e.name] = t1.Sub(t0)
		p.wall += t1.Sub(t0)
		p.windows = append(p.windows, [2]time.Time{t0, t1})
		p.texts[e.name] = text
		if between != nil {
			if err := between(); err != nil {
				return nil, err
			}
		}
	}
	p.results = tee.results
	for _, jr := range p.results {
		if jr.Result == nil || jr.Result.Err != nil {
			p.failed++
		}
	}
	return p, nil
}

// newKeyer returns an engine used only for engine.ResultKey. Engines
// memoize a fingerprint per program value, so a keyer lives no longer
// than the results it keys and holds no memory across passes.
func newKeyer() *engine.Engine {
	return engine.New(engine.Options{Parallelism: 1, DisableCache: true})
}

// simulatedWork sums the committed micro-ops and cycles of the distinct
// results of a pass — on a fresh engine without a store, exactly the
// work that was simulated. Jobs with no result key cannot be deduplicated
// and count every time.
func simulatedWork(results []engine.JobResult) (sims, uops, cycles int64) {
	keyer := newKeyer()
	seen := map[string]bool{}
	for _, jr := range results {
		if jr.Result == nil || jr.Result.Err != nil || jr.Result.Metrics == nil {
			continue
		}
		if key, ok := keyer.ResultKey(jr.Job); ok {
			if seen[key] {
				continue
			}
			seen[key] = true
		}
		sims++
		uops += jr.Result.Metrics.Uops
		cycles += jr.Result.Metrics.Cycles
	}
	return sims, uops, cycles
}
