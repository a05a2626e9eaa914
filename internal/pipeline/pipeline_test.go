package pipeline

import (
	"strings"
	"testing"
	"testing/quick"

	"clustersim/internal/interconnect"
	"clustersim/internal/partition"
	"clustersim/internal/prog"
	"clustersim/internal/steer"
	"clustersim/internal/trace"
	"clustersim/internal/uarch"
)

// cfgN returns a default config for n clusters.
func cfgN(n int) Config { return DefaultConfig(n) }

// run builds a core and runs it, failing the test on error.
func run(t *testing.T, cfg Config, pol steer.Policy, tr *trace.Trace) *Metrics {
	t.Helper()
	core, err := NewCore(cfg, pol, tr)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.Run()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// chainProgram: one block with a single serial dependence chain.
func chainProgram() *prog.Program {
	b := prog.NewBuilder("chain")
	b.Int(uarch.OpAdd, uarch.IntReg(1), uarch.IntReg(1), uarch.IntReg(1))
	return b.MustBuild()
}

// ilpProgram: w independent chains round-robined in one block.
func ilpProgram(w int) *prog.Program {
	b := prog.NewBuilder("ilp")
	for i := 0; i < w; i++ {
		r := uarch.IntReg(1 + i)
		b.Int(uarch.OpAdd, r, r, r)
	}
	return b.MustBuild()
}

func TestSerialChainOneIPCBound(t *testing.T) {
	p := chainProgram()
	tr := trace.Expand(p, trace.Options{NumUops: 2000, Seed: 1})
	cfg := cfgN(1)
	cfg.Net = interconnect.DefaultConfig(1)
	m := run(t, cfg, &steer.OneCluster{}, tr)
	if m.Uops != 2000 {
		t.Fatalf("committed %d, want 2000", m.Uops)
	}
	// A serial chain of 1-cycle adds cannot beat 1 IPC and should be close
	// to it (pipeline fill is the only overhead).
	if m.Cycles < 2000 {
		t.Errorf("cycles = %d, impossible (< chain length)", m.Cycles)
	}
	if m.Cycles > 2100 {
		t.Errorf("cycles = %d, want ≈2000 (serial chain at 1 IPC)", m.Cycles)
	}
}

func TestILPReachesIssueWidth(t *testing.T) {
	p := ilpProgram(8)
	tr := trace.Expand(p, trace.Options{NumUops: 4000, Seed: 1})
	cfg := cfgN(1)
	cfg.Net = interconnect.DefaultConfig(1)
	m := run(t, cfg, &steer.OneCluster{}, tr)
	// Single cluster: 2 INT issue/cycle is the bound.
	if ipc := m.IPC(); ipc < 1.8 || ipc > 2.05 {
		t.Errorf("IPC = %.3f, want ≈2 (cluster issue width)", ipc)
	}
}

func TestTwoClustersDoubleThroughput(t *testing.T) {
	p := ilpProgram(8)
	tr := trace.Expand(p, trace.Options{NumUops: 8000, Seed: 1})
	m := run(t, cfgN(2), &steer.ModN{}, tr)
	// Independent chains: mod-2 steering splits them with no copies needed
	// after the first iteration... copies only when a chain's value crosses.
	// With 8 chains round-robined over 2 clusters, chain i alternates
	// clusters, generating copies but still roughly doubling issue width.
	if ipc := m.IPC(); ipc < 3.0 {
		t.Errorf("IPC = %.3f, want ≥3 with two clusters", ipc)
	}
}

func TestOneClusterPolicyZeroCopies(t *testing.T) {
	p := ilpProgram(4)
	tr := trace.Expand(p, trace.Options{NumUops: 3000, Seed: 2})
	m := run(t, cfgN(2), &steer.OneCluster{}, tr)
	if m.Copies != 0 {
		t.Errorf("one-cluster steering generated %d copies, want 0", m.Copies)
	}
	if m.PerCluster[1].Dispatched != 0 {
		t.Errorf("cluster 1 received %d uops under one-cluster", m.PerCluster[1].Dispatched)
	}
}

func TestModNGeneratesCopies(t *testing.T) {
	p := chainProgram() // serial chain: every other uop needs the value across
	tr := trace.Expand(p, trace.Options{NumUops: 1000, Seed: 2})
	m := run(t, cfgN(2), &steer.ModN{}, tr)
	if m.Copies == 0 {
		t.Error("round-robin on a serial chain must generate copies")
	}
	if m.LinkTransfers == 0 {
		t.Error("copies must traverse the interconnect")
	}
}

func TestOPKeepsChainTogether(t *testing.T) {
	p := chainProgram()
	tr := trace.Expand(p, trace.Options{NumUops: 1000, Seed: 2})
	m := run(t, cfgN(2), &steer.OP{}, tr)
	// Dependence steering keeps the chain in one cluster until its issue
	// queue fills, then migrates it once (one copy per migration): far
	// fewer copies than one per uop.
	if rate := m.CopiesPerKuop(); rate > 50 {
		t.Errorf("OP copies/kuop = %.1f on a serial chain, want < 50", rate)
	}
	mMod := run(t, cfgN(2), &steer.ModN{}, tr)
	if m.Copies >= mMod.Copies {
		t.Errorf("OP copies (%d) should be far below round-robin (%d)", m.Copies, mMod.Copies)
	}
}

func TestCommittedEqualsTrace(t *testing.T) {
	p := ilpProgram(3)
	tr := trace.Expand(p, trace.Options{NumUops: 2500, Seed: 3})
	for _, pol := range []steer.Policy{&steer.OP{}, &steer.OneCluster{}, &steer.ModN{}} {
		m := run(t, cfgN(2), pol, tr)
		if m.Uops != int64(len(tr.Uops)) {
			t.Errorf("%s: committed %d, want %d", pol.Name(), m.Uops, len(tr.Uops))
		}
	}
}

func TestDeterministicCycles(t *testing.T) {
	p := ilpProgram(4)
	tr := trace.Expand(p, trace.Options{NumUops: 2000, Seed: 4})
	m1 := run(t, cfgN(2), &steer.OP{}, tr)
	m2 := run(t, cfgN(2), &steer.OP{}, tr)
	if m1.Cycles != m2.Cycles || m1.Copies != m2.Copies {
		t.Errorf("nondeterministic: cycles %d vs %d, copies %d vs %d",
			m1.Cycles, m2.Cycles, m1.Copies, m2.Copies)
	}
}

// branchProgram: a loop with a given bias.
func branchProgram(bias float64) *prog.Program {
	b := prog.NewBuilder("br")
	b.Int(uarch.OpAdd, uarch.IntReg(1), uarch.IntReg(1), uarch.IntReg(1))
	b.Branch(uarch.IntReg(1), 0.5, bias)
	other := b.NewBlock()
	b.Int(uarch.OpAdd, uarch.IntReg(2), uarch.IntReg(2), uarch.IntReg(2))
	b.Block(0).Edge(0, 0.5).Edge(other, 0.5)
	b.Block(other).Jump(0)
	return b.MustBuild()
}

func TestBranchMispredictionCostsCycles(t *testing.T) {
	good := trace.Expand(branchProgram(1.0), trace.Options{NumUops: 4000, Seed: 5})
	bad := trace.Expand(branchProgram(0.0), trace.Options{NumUops: 4000, Seed: 5})
	mGood := run(t, cfgN(2), &steer.OP{}, good)
	mBad := run(t, cfgN(2), &steer.OP{}, bad)
	if mBad.MispredictRate() < mGood.MispredictRate() {
		t.Errorf("random branches (%f) should mispredict more than periodic (%f)",
			mBad.MispredictRate(), mGood.MispredictRate())
	}
	if mBad.Cycles <= mGood.Cycles {
		t.Errorf("mispredictions should cost cycles: %d vs %d", mBad.Cycles, mGood.Cycles)
	}
	if mBad.FetchStallCycles == 0 {
		t.Error("mispredictions should stall fetch")
	}
}

// memProgram: strided loads from a working set of the given size.
func memProgram(ws int) *prog.Program {
	b := prog.NewBuilder("mem")
	b.Load(uarch.IntReg(1), uarch.IntReg(0),
		prog.MemRef{Pattern: prog.MemStride, Stream: 0, StrideBytes: 64, WorkingSet: ws})
	b.Int(uarch.OpAdd, uarch.IntReg(2), uarch.IntReg(1), uarch.IntReg(2))
	return b.MustBuild()
}

func TestCachePressureCostsCycles(t *testing.T) {
	small := trace.Expand(memProgram(8<<10), trace.Options{NumUops: 4000, Seed: 6})
	big := trace.Expand(memProgram(8<<20), trace.Options{NumUops: 4000, Seed: 6})
	mSmall := run(t, cfgN(2), &steer.OP{}, small)
	mBig := run(t, cfgN(2), &steer.OP{}, big)
	if mBig.Cycles <= mSmall.Cycles {
		t.Errorf("large working set should be slower: %d vs %d", mBig.Cycles, mSmall.Cycles)
	}
	if mBig.MemAccesses == 0 {
		t.Error("8MB working set should miss to memory")
	}
	if mSmall.MemAccesses > mBig.MemAccesses {
		t.Error("small working set should miss less")
	}
}

func TestStoreLoadForwardingInPipeline(t *testing.T) {
	b := prog.NewBuilder("fwd")
	mem := prog.MemRef{Pattern: prog.MemStack, Stream: 0, WorkingSet: 64}
	b.Store(uarch.IntReg(1), uarch.IntReg(0), mem)
	b.Load(uarch.IntReg(2), uarch.IntReg(0), mem)
	p := b.MustBuild()
	tr := trace.Expand(p, trace.Options{NumUops: 1000, Seed: 7})
	m := run(t, cfgN(2), &steer.OP{}, tr)
	if m.LSQForwards == 0 {
		t.Error("store→load same tiny region should forward at least once")
	}
}

// annotatedVCTrace builds a VC-annotated trace of two independent chains.
func annotatedVCTrace(numVC, uops int) *trace.Trace {
	b := prog.NewBuilder("vcprog")
	for i := 0; i < 8; i++ {
		r := uarch.IntReg(1 + i%4)
		b.Int(uarch.OpAdd, r, r, r)
	}
	p := b.MustBuild()
	partition.AnnotateVC(p, partition.Options{NumVC: numVC})
	return trace.Expand(p, trace.Options{NumUops: uops, Seed: 8})
}

func TestVCPolicyEndToEnd(t *testing.T) {
	tr := annotatedVCTrace(2, 4000)
	m := run(t, cfgN(2), steer.NewVC(2), tr)
	if m.Uops != 4000 {
		t.Fatalf("committed %d, want 4000", m.Uops)
	}
	// Both clusters should see work (leaders rebalance).
	if m.PerCluster[0].Dispatched == 0 || m.PerCluster[1].Dispatched == 0 {
		t.Errorf("VC left a cluster idle: %+v", m.PerCluster)
	}
}

func TestStaticPolicyEndToEnd(t *testing.T) {
	b := prog.NewBuilder("rhopprog")
	for i := 0; i < 8; i++ {
		r := uarch.IntReg(1 + i%4)
		b.Int(uarch.OpAdd, r, r, r)
	}
	p := b.MustBuild()
	partition.AnnotateRHOP(p, partition.Options{NumClusters: 2})
	tr := trace.Expand(p, trace.Options{NumUops: 4000, Seed: 9})
	m := run(t, cfgN(2), &steer.Static{Label: "RHOP"}, tr)
	if m.Uops != 4000 {
		t.Fatalf("committed %d, want 4000", m.Uops)
	}
}

func TestWorkloadImbalanceMetric(t *testing.T) {
	p := ilpProgram(8)
	tr := trace.Expand(p, trace.Options{NumUops: 4000, Seed: 10})
	mOne := run(t, cfgN(2), &steer.OneCluster{}, tr)
	mMod := run(t, cfgN(2), &steer.ModN{}, tr)
	if mOne.WorkloadImbalance() <= mMod.WorkloadImbalance() {
		t.Errorf("one-cluster imbalance (%.3f) should exceed round-robin (%.3f)",
			mOne.WorkloadImbalance(), mMod.WorkloadImbalance())
	}
}

func TestOneClusterSlowerOnILP(t *testing.T) {
	p := ilpProgram(8)
	tr := trace.Expand(p, trace.Options{NumUops: 6000, Seed: 11})
	mOne := run(t, cfgN(2), &steer.OneCluster{}, tr)
	mOP := run(t, cfgN(2), &steer.OP{}, tr)
	if mOne.Cycles <= mOP.Cycles {
		t.Errorf("one-cluster (%d cycles) should lose to OP (%d) on ILP-rich code",
			mOne.Cycles, mOP.Cycles)
	}
}

func TestFourClusterConfigRuns(t *testing.T) {
	p := ilpProgram(12)
	tr := trace.Expand(p, trace.Options{NumUops: 6000, Seed: 12})
	m := run(t, cfgN(4), &steer.OP{}, tr)
	if m.Uops != 6000 {
		t.Fatalf("committed %d, want 6000", m.Uops)
	}
	busy := 0
	for _, pc := range m.PerCluster {
		if pc.Dispatched > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Errorf("only %d clusters busy on 12 independent chains", busy)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := DefaultConfig(2)
	bad.Net = interconnect.DefaultConfig(3) // mismatch
	if _, err := NewCore(bad, &steer.OP{}, &trace.Trace{}); err == nil {
		t.Error("expected error for cluster/network mismatch")
	}
	bad2 := DefaultConfig(0)
	if err := bad2.Validate(); err == nil {
		t.Error("expected error for zero clusters")
	}
}

// Property: for arbitrary ILP widths and seeds, every run commits exactly
// the trace length, never exceeds dispatch-width IPC, and copies appear
// only with more than one cluster.
func TestPipelineInvariantsProperty(t *testing.T) {
	p := ilpProgram(5)
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%500 + 100
		tr := trace.Expand(p, trace.Options{NumUops: n, Seed: seed})
		core, err := NewCore(cfgN(2), &steer.OP{}, tr)
		if err != nil {
			return false
		}
		m, err := core.Run()
		if err != nil {
			return false
		}
		if m.Uops != int64(n) {
			return false
		}
		if m.IPC() > float64(cfgN(2).SteerWidth) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestGShareLearnsPeriodicPattern(t *testing.T) {
	g := newGShare(10)
	// Pattern: taken 3, not-taken 1, repeating — gshare with history must
	// exceed 90% after warmup.
	correct, total := 0, 0
	for i := 0; i < 4000; i++ {
		taken := i%4 != 3
		pred := g.predictAndUpdate(77, taken)
		if i > 400 {
			total++
			if pred == taken {
				correct++
			}
		}
	}
	if acc := float64(correct) / float64(total); acc < 0.9 {
		t.Errorf("gshare accuracy on periodic pattern = %.3f, want > 0.9", acc)
	}
}

// A latency that lets an event fall due in the cycle that schedules it
// would deadlock the core (the cycle's drain has already run), and a
// negative MSHR count leaves no L1 miss an MSHR. Construction rejects
// each, naming the field.
func TestNewCoreRejectsDeadlockingLatencies(t *testing.T) {
	tr := trace.Expand(chainProgram(), trace.Options{NumUops: 100, Seed: 1})
	for _, tc := range []struct {
		field string
		tweak func(*Config)
	}{
		{"interconnect: Latency", func(c *Config) { c.Net.Latency = 0 }},
		{"L1.HitLatency", func(c *Config) { c.Mem.L1.HitLatency = 0 }},
		{"L2.HitLatency", func(c *Config) { c.Mem.L2.HitLatency = -1 }},
		{"MemLatency", func(c *Config) { c.Mem.MemLatency = -1 }},
		{"MSHRs", func(c *Config) { c.Mem.MSHRs = -1 }},
	} {
		cfg := cfgN(2)
		tc.tweak(&cfg)
		_, err := NewCore(cfg, &steer.OP{}, tr)
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: NewCore error = %v, want one naming the field", tc.field, err)
		}
	}
	// The smallest legal latencies still run to completion.
	cfg := cfgN(2)
	cfg.Mem.L1.HitLatency, cfg.Mem.L2.HitLatency, cfg.Mem.MemLatency = 1, 1, 0
	run(t, cfg, &steer.OP{}, trace.Expand(memProgram(4<<10), trace.Options{NumUops: 2000, Seed: 1}))
}
