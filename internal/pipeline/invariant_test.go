package pipeline

import (
	"fmt"
	"slices"
	"testing"

	"clustersim/internal/cluster"
	"clustersim/internal/partition"
	"clustersim/internal/prog"
	"clustersim/internal/steer"
	"clustersim/internal/trace"
	"clustersim/internal/uarch"
	"clustersim/internal/workload"
)

// withInvariants runs f with the invariant checks switched on: dataflow
// readiness at every issue, resource conservation at the end of a run.
func withInvariants(f func()) {
	old := checkInvariants
	checkInvariants = true
	defer func() { checkInvariants = old }()
	f()
}

// goldenSetup is one setup of the golden table (see
// internal/sim/golden_test.go): the compiler pass its traces are annotated
// with (nil: unannotated) for a target cluster count, the machine's
// cluster count and a fresh-policy factory.
type goldenSetup struct {
	name     string
	annotate func(*prog.Program, partition.Options)
	targets  int
	clusters int
	make     func() steer.Policy
}

func goldenSetups() []goldenSetup {
	return []goldenSetup{
		{"OP", nil, 0, 2, func() steer.Policy { return &steer.OP{} }},
		{"one-cluster", nil, 0, 2, func() steer.Policy { return &steer.OneCluster{} }},
		{"OB", partition.AnnotateOB, 2, 2, func() steer.Policy { return &steer.Static{Label: "OB"} }},
		{"RHOP", partition.AnnotateRHOP, 2, 2, func() steer.Policy { return &steer.Static{Label: "RHOP"} }},
		{"VC", partition.AnnotateVC, 2, 2, func() steer.Policy { return steer.NewVC(2) }},
		{"VC(2->4)", partition.AnnotateVC, 2, 4, func() steer.Policy { return steer.NewVC(2) }},
	}
}

// goldenUops is the golden table's trace length, shortened under -short.
func goldenUops() int {
	if testing.Short() {
		return 1000
	}
	return 5000
}

// trace expands simpoint sp for machine cfg as the golden table does.
func (s goldenSetup) trace(cfg Config, sp *workload.Simpoint, uops int) *trace.Trace {
	p := sp.Program.Clone()
	if s.annotate != nil {
		s.annotate(p, partition.Options{
			NumVC: s.targets, NumClusters: s.targets,
			IssueInt: cfg.Cluster.IssueInt, IssueFP: cfg.Cluster.IssueFP,
			CommLatency: cfg.Net.Latency + 1,
		})
	}
	return trace.Expand(p, trace.Options{NumUops: uops, Seed: sp.Seed})
}

// TestDataflowReadinessGoldenSetups runs the golden table's setups over
// the quick suite with the invariant checks on: no micro-op issues before
// the operands it waited on are readable in its cluster, and no copy
// issues before its value is readable in its home cluster. Every run goes
// both cycle by cycle and with idle skipping, which must agree, and every
// run must complete: a deadlock both modes share is still a failure, and
// only a completed run reaches the end-of-run conservation check.
func TestDataflowReadinessGoldenSetups(t *testing.T) {
	uops := goldenUops()
	withInvariants(func() {
		for _, s := range goldenSetups() {
			cfg := DefaultConfig(s.clusters)
			for _, sp := range workload.QuickSuite() {
				tr := s.trace(cfg, sp, uops)
				label := fmt.Sprintf("%s/%s", s.name, sp.Name)
				if _, err := checkSkipEquivalent(t, label, cfg, s.make, tr); err != "" {
					t.Errorf("%s: run did not complete: %s", label, err)
				}
			}
		}
	})
}

// overflowTrace is a long-lived register read through a copy at the moment
// its value is evicted from the value window. Seq 0 writes r9 in cluster 0
// and nothing overwrites it; fifteen cluster-0 adds follow; seq 16, steered
// to cluster 1, reads r9 there. r9 is not in cluster 1, so dispatch plans a
// copy and parks seq 16's entry on value 0; seq 16's own destination then
// claims value slot 16 mod 16 = 0 and evicts the still-live value 0, with
// its waiter, to the overflow map. A tail of cluster-1 work follows.
func overflowTrace() *trace.Trace {
	at := func(ci int, dst, src uarch.Reg) *prog.StaticOp {
		ann := prog.NoAnnotation
		ann.Static = ci
		return &prog.StaticOp{Opcode: uarch.OpAdd, Dst: dst, Src1: src, Src2: src, Ann: ann}
	}
	producer := at(0, uarch.IntReg(9), uarch.IntReg(0))
	filler := at(0, uarch.IntReg(1), uarch.IntReg(1))
	consumer := at(1, uarch.IntReg(2), uarch.IntReg(9))
	tail := at(1, uarch.IntReg(3), uarch.IntReg(2))
	tr := &trace.Trace{Name: "overflow"}
	tr.Uops = append(tr.Uops, trace.Uop{Static: producer})
	for i := 0; i < 15; i++ {
		tr.Uops = append(tr.Uops, trace.Uop{Static: filler})
	}
	tr.Uops = append(tr.Uops, trace.Uop{Static: consumer})
	for i := 0; i < 40; i++ {
		tr.Uops = append(tr.Uops, trace.Uop{Static: tail})
	}
	return tr
}

// parked returns the seqs of the entries parked on v, most recent first.
func parked(v *valueState) []int64 {
	var seqs []int64
	v.waiters.Each(func(e *cluster.Entry) { seqs = append(seqs, e.Seq) })
	return seqs
}

// TestWaiterSurvivesValueOverflow drives a value with a parked consumer
// into the overflow map: the eviction must carry the wait list along, the
// copy's arrival must still wake the consumer, and idle skipping must not
// change the outcome.
func TestWaiterSurvivesValueOverflow(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.ROBSize = 8
	tr := overflowTrace()
	mk := func() steer.Policy { return &steer.Static{Label: "pinned"} }
	core, err := NewCore(cfg, mk(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(core.values) != 16 {
		t.Fatalf("value window has %d slots; the trace assumes 16", len(core.values))
	}
	// Step the stages Run would, until the evicted value shows up in the
	// overflow map with the consumer parked on it.
	waiting := false
	for ; core.cycle < 200 && !waiting; core.cycle++ {
		core.commit()
		core.processEvents()
		core.issue()
		core.dispatchStage()
		core.fetch()
		if v := core.valOverflow[0]; v != nil {
			seqs := parked(v)
			if len(seqs) > 0 && !slices.Equal(seqs, []int64{16}) {
				t.Fatalf("evicted value 0 holds parked seqs %v, want exactly seq 16", seqs)
			}
			waiting = len(seqs) > 0
		}
	}
	if !waiting {
		t.Fatal("value 0 never reached the overflow map with its consumer parked on it")
	}
	withInvariants(func() {
		if _, err := core.Run(); err != nil {
			t.Fatal(err)
		}
	})
	v := core.valOverflow[0]
	if v == nil || v.readyMask != 0b11 || len(parked(v)) != 0 {
		t.Fatalf("value 0 after the run: %+v, want ready in both clusters with no waiters", v)
	}
	if got := core.clusters[1].IntQ.Issued; got != 41 {
		t.Errorf("cluster 1 issued %d micro-ops, want the consumer and its 40 successors", got)
	}
	withInvariants(func() {
		checkSkipEquivalent(t, "overflow", cfg, mk, tr)
	})
}
