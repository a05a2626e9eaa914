package pipeline

import (
	"fmt"
	"reflect"
	"testing"

	"clustersim/internal/partition"
	"clustersim/internal/prog"
	"clustersim/internal/steer"
	"clustersim/internal/trace"
	"clustersim/internal/uarch"
	"clustersim/internal/workload"
)

// skipPolicy is one steering configuration of the equivalence matrix: the
// compiler pass its trace is annotated with and a fresh-policy factory.
type skipPolicy struct {
	name     string
	annotate func(*prog.Program, partition.Options)
	make     func(clusters int) steer.Policy
}

func skipPolicies() []skipPolicy {
	return []skipPolicy{
		{"OP", partition.AnnotateVC, func(int) steer.Policy { return &steer.OP{} }},
		{"OP-nostall", partition.AnnotateVC, func(int) steer.Policy { return &steer.OP{NoStall: true} }},
		{"one-cluster", partition.AnnotateVC, func(int) steer.Policy { return &steer.OneCluster{} }},
		{"OB", partition.AnnotateOB, func(int) steer.Policy { return &steer.Static{Label: "OB"} }},
		{"RHOP", partition.AnnotateRHOP, func(int) steer.Policy { return &steer.Static{Label: "RHOP"} }},
		{"VC", partition.AnnotateVC, func(n int) steer.Policy { return steer.NewVC(n) }},
		{"VCComm", partition.AnnotateVC, func(n int) steer.Policy { return steer.NewVCComm(n) }},
		{"ModN", partition.AnnotateVC, func(int) steer.Policy { return &steer.ModN{} }},
		{"Slice", partition.AnnotateVC, func(int) steer.Policy { return &steer.Slice{} }},
		{"ADV", partition.AnnotateVC, func(int) steer.Policy { return &steer.DependenceBalanced{} }},
	}
}

// skipOutcome is everything one run reports.
type skipOutcome struct {
	Metrics    *Metrics
	Complexity steer.Complexity
	Err        string
	Cycle      int64
	Scheduled  int64
}

// runSkip runs one machine with idle-cycle skipping on or off and returns
// its outcome plus the number of cycles it fast-forwarded.
func runSkip(t *testing.T, skip bool, cfg Config, pol steer.Policy, tr *trace.Trace) (skipOutcome, int64) {
	t.Helper()
	old := idleSkip
	idleSkip = skip
	defer func() { idleSkip = old }()
	core, err := NewCore(cfg, pol, tr)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.Run()
	out := skipOutcome{Metrics: m, Complexity: core.ComplexityOf(), Cycle: core.cycle, Scheduled: core.evStats.scheduled}
	if err != nil {
		out.Err = err.Error()
	}
	return out, core.evStats.skipped
}

// checkSkipEquivalent runs the machine both ways and fails on any
// difference. It returns the cycles the skipping run fast-forwarded and
// the run's error text, empty only when both runs completed.
func checkSkipEquivalent(t *testing.T, label string, cfg Config, mk func() steer.Policy, tr *trace.Trace) (int64, string) {
	t.Helper()
	ref, refSkipped := runSkip(t, false, cfg, mk(), tr)
	got, skipped := runSkip(t, true, cfg, mk(), tr)
	if refSkipped != 0 {
		t.Fatalf("%s: cycle-by-cycle reference skipped %d cycles", label, refSkipped)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Errorf("%s: idle skipping changed the outcome\nskip: %s\nref:  %s", label, describeOutcome(got), describeOutcome(ref))
	}
	if ref.Err != "" {
		return skipped, ref.Err
	}
	return skipped, got.Err
}

func describeOutcome(o skipOutcome) string {
	m := o.Metrics
	s := fmt.Sprintf("cycle=%d sched=%d err=%q cx=%+v", o.Cycle, o.Scheduled, o.Err, o.Complexity)
	if m != nil {
		s += fmt.Sprintf(" cycles=%d uops=%d stalls=%v alloc=%d fetch=%d per=%+v",
			m.Cycles, m.Uops, m.StallCycles, m.AllocStallCycles, m.FetchStallCycles, m.PerCluster)
		if h := m.Histograms; h != nil {
			s += fmt.Sprintf(" rob(n=%d mean=%.3f)", h.ROB.Count(), h.ROB.Mean())
		}
	}
	return s
}

// annotatedSuite expands every quick-suite simpoint under the given pass.
func annotatedSuite(annotate func(*prog.Program, partition.Options), clusters, uops int) map[string]*trace.Trace {
	out := map[string]*trace.Trace{}
	for _, sp := range workload.QuickSuite() {
		p := sp.Program.Clone()
		annotate(p, partition.Options{NumVC: clusters, NumClusters: clusters})
		out[sp.Name] = trace.Expand(p, trace.Options{NumUops: uops, Seed: sp.Seed})
	}
	return out
}

// TestIdleSkipMatchesCycleByCycle is the exactness proof of idle-cycle
// fast-forwarding: over the quick suite, every steering policy and a set
// of machine variants that stress each skip bound, the skipping core must
// report exactly what the cycle-by-cycle core reports — every Metrics
// field including histograms, the policy's steering-work counters, the
// error text, the final cycle and the scheduled-event count.
func TestIdleSkipMatchesCycleByCycle(t *testing.T) {
	uops := 1000
	if testing.Short() {
		uops = 500
	}
	// Every policy runs the whole quick suite on two and four clusters;
	// the variants that stress one skip bound each run the low-IPC
	// simpoints, where the idle cycles are, plus one high-IPC control.
	lowIPC := map[string]bool{"mcf": true, "ammp": true, "gcc-1": true, "crafty": true}
	variants := []struct {
		name     string
		clusters int
		all      bool
		tweak    func(*Config)
	}{
		{"2c", 2, true, func(*Config) {}},
		{"4c", 4, true, func(*Config) {}},
		{"hist", 2, false, func(c *Config) { c.TrackHistograms = true }},
		{"mshr2", 2, false, func(c *Config) { c.Mem.MSHRs = 2 }},
		{"mem5000", 2, false, func(c *Config) { c.Mem.MemLatency = 5000 }}, // beyond the wheel: overflow bucket
		{"noprefetch", 2, false, func(c *Config) { c.Mem.PrefetchDegree = 0 }},
		{"warmup", 2, false, func(c *Config) { c.WarmupUops = int64(uops / 4) }},
	}
	totalSkipped := int64(0)
	for _, pol := range skipPolicies() {
		suites := map[int]map[string]*trace.Trace{}
		for _, v := range variants {
			if suites[v.clusters] == nil {
				suites[v.clusters] = annotatedSuite(pol.annotate, v.clusters, uops)
			}
			cfg := DefaultConfig(v.clusters)
			v.tweak(&cfg)
			for name, tr := range suites[v.clusters] {
				if !v.all && !lowIPC[name] {
					continue
				}
				label := fmt.Sprintf("%s/%s/%s", pol.name, v.name, name)
				n := v.clusters
				skipped, _ := checkSkipEquivalent(t, label, cfg, func() steer.Policy { return pol.make(n) }, tr)
				totalSkipped += skipped
			}
		}
	}
	if totalSkipped == 0 {
		t.Fatal("no run fast-forwarded a single cycle: the skip path is untested")
	}
}

// TestIdleSkipFastForwardsMemoryBoundRuns pins that the skip is not a
// no-op where it matters: on mcf, the memory-bound simpoint, most
// simulated cycles are fast-forwarded rather than simulated.
func TestIdleSkipFastForwardsMemoryBoundRuns(t *testing.T) {
	tr := annotatedSuite(partition.AnnotateVC, 2, 3000)["mcf"]
	out, skipped := runSkip(t, true, DefaultConfig(2), &steer.OP{}, tr)
	if out.Err != "" {
		t.Fatal(out.Err)
	}
	if frac := float64(skipped) / float64(out.Metrics.Cycles); frac < 0.5 {
		t.Errorf("mcf: fast-forwarded %d of %d cycles (%.0f%%), want most of them",
			skipped, out.Metrics.Cycles, frac*100)
	}
}

// TestIdleSkipMaxCyclesInsideIdleRun aborts a run at a MaxCycles that
// falls inside an idle run, so the skip must stop exactly at the limit.
func TestIdleSkipMaxCyclesInsideIdleRun(t *testing.T) {
	tr := annotatedSuite(partition.AnnotateVC, 2, 3000)["mcf"]
	skippedAt := func(limit int64) int64 {
		cfg := DefaultConfig(2)
		cfg.MaxCycles = limit
		_, skipped := runSkip(t, true, cfg, &steer.OP{}, tr)
		return skipped
	}
	// A limit lies inside an idle run when raising it by d adds exactly d
	// fast-forwarded cycles: the shorter run's skip was cut at the limit.
	const d = 40
	for limit := int64(20_000); limit < 40_000; limit += 997 {
		if skippedAt(limit+d)-skippedAt(limit) != d {
			continue
		}
		cfg := DefaultConfig(2)
		cfg.MaxCycles = limit
		checkSkipEquivalent(t, fmt.Sprintf("MaxCycles=%d", limit), cfg, func() steer.Policy { return &steer.OP{} }, tr)
		return
	}
	t.Fatal("found no MaxCycles inside an idle run of mcf")
}

// TestIdleSkipNoCommitDetector trips the 500k-cycle no-commit detector:
// a memory latency beyond it leaves the machine idle, and the skipping
// core must fail at the same cycle with the same message.
func TestIdleSkipNoCommitDetector(t *testing.T) {
	tr := memboundTrace(200)
	cfg := DefaultConfig(2)
	cfg.Mem.MemLatency = 600_000
	skipped, _ := checkSkipEquivalent(t, "no-commit", cfg, func() steer.Policy { return &steer.OP{} }, tr)
	out, _ := runSkip(t, true, cfg, &steer.OP{}, tr)
	if out.Err == "" || out.Cycle != 500_001 {
		t.Errorf("detector did not fire at cycle 500001: cycle %d, err %q", out.Cycle, out.Err)
	}
	if skipped < 400_000 {
		t.Errorf("fast-forwarded only %d cycles of a 500k-cycle stall", skipped)
	}
}

// cancelAfter closes a run's cancel channel from inside the simulation,
// after a fixed number of steering decisions, so the cancellation point is
// a deterministic function of simulated time. Stalled calls do not count:
// repeats of one may be fast-forwarded rather than made.
type cancelAfter struct {
	steer.Policy
	decisions int
	ch        chan struct{}
}

func (p *cancelAfter) Steer(ctx steer.Context, u *trace.Uop) steer.Decision {
	d := p.Policy.Steer(ctx, u)
	if !d.Stall {
		if p.decisions--; p.decisions == 0 {
			close(p.ch)
		}
	}
	return d
}

// TestIdleSkipCancelMidRun cancels a memory-bound run part-way: the poll
// runs every 4096 cycles, and the skipping core must notice the
// cancellation at the same poll, returning identical partial metrics.
func TestIdleSkipCancelMidRun(t *testing.T) {
	tr := annotatedSuite(partition.AnnotateVC, 2, 3000)["mcf"]
	run := func(skip bool) (skipOutcome, int64) {
		cfg := DefaultConfig(2)
		pol := &cancelAfter{Policy: &steer.OP{}, decisions: 1500, ch: make(chan struct{})}
		cfg.Cancel = pol.ch
		return runSkip(t, skip, cfg, pol, tr)
	}
	ref, _ := run(false)
	got, skipped := run(true)
	if ref.Err != ErrCanceled.Error() {
		t.Fatalf("reference run was not canceled: %q", ref.Err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Errorf("canceled run diverged\nskip: %s\nref:  %s", describeOutcome(got), describeOutcome(ref))
	}
	if skipped == 0 {
		t.Error("the canceled run fast-forwarded nothing")
	}
}

// TestIdleSkipStoreDataPolls drives store-data waits (a store whose data
// comes from a long-latency load, parked on the load's value) through
// skipped cycles.
func TestIdleSkipStoreDataPolls(t *testing.T) {
	b := prog.NewBuilder("storedata")
	b.Load(uarch.IntReg(1), uarch.IntReg(10), prog.MemRef{
		Pattern: prog.MemStride, Stream: 0, StrideBytes: 256, WorkingSet: 64 << 20,
	})
	b.Store(uarch.IntReg(1), uarch.IntReg(11), prog.MemRef{
		Pattern: prog.MemStride, Stream: 1, StrideBytes: 8, WorkingSet: 4 << 10,
	})
	b.Load(uarch.IntReg(2), uarch.IntReg(11), prog.MemRef{
		Pattern: prog.MemStride, Stream: 1, StrideBytes: 8, WorkingSet: 4 << 10,
	})
	tr := trace.Expand(b.MustBuild(), trace.Options{NumUops: 3000, Seed: 3})
	for _, n := range []int{2, 4} {
		skipped, _ := checkSkipEquivalent(t, fmt.Sprintf("storedata/%dc", n), DefaultConfig(n),
			func() steer.Policy { return &steer.ModN{} }, tr)
		if skipped == 0 {
			t.Errorf("%d clusters: nothing fast-forwarded", n)
		}
	}
}
