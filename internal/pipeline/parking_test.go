package pipeline

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"clustersim/internal/partition"
	"clustersim/internal/prog"
	"clustersim/internal/steer"
	"clustersim/internal/trace"
	"clustersim/internal/uarch"
	"clustersim/internal/workload"
)

// runStoreWaits runs one machine with store-data waits polled every cycle
// (the reference) or parked, and idle skipping on or off. It returns the
// outcome without the scheduled-event count, which the re-polls inflate,
// and that count on its own.
func runStoreWaits(t *testing.T, polls, skip bool, cfg Config, pol steer.Policy, tr *trace.Trace) (skipOutcome, int64) {
	t.Helper()
	old := storeDataPolls
	storeDataPolls = polls
	defer func() { storeDataPolls = old }()
	out, _ := runSkip(t, skip, cfg, pol, tr)
	scheduled := out.Scheduled
	out.Scheduled = 0
	return out, scheduled
}

// checkParkingExact runs the machine with store-data waits polled and
// parked, each cycle by cycle and with idle skipping, and fails on any
// difference. It returns the store-data polls the parking saved.
func checkParkingExact(t *testing.T, label string, cfg Config, mk func() steer.Policy, tr *trace.Trace) int64 {
	t.Helper()
	saved := int64(0)
	for _, skip := range []bool{false, true} {
		ref, refScheduled := runStoreWaits(t, true, skip, cfg, mk(), tr)
		got, scheduled := runStoreWaits(t, false, skip, cfg, mk(), tr)
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("%s (idle skip %v): parking store-data waits changed the outcome\nparked: %s\npolled: %s",
				label, skip, describeOutcome(got), describeOutcome(ref))
		}
		saved += refScheduled - scheduled
	}
	return saved
}

// storeChainProgram builds a random program dense in store→load chains
// through one address: a late value (a missing load, a divide or a
// multiply) is stored, a load of the same address forwards it once the
// store's data arrives, and the loaded value feeds the next store. Each
// link's store parks on the previous link's load, whose forwarded value
// arrives as a completion the drain scheduled for the next cycle, so the
// wake lands among the polls it replaces. Address registers are written
// only by the multiplies and divides that delay some loads' addresses.
func storeChainProgram(rng *rand.Rand) *prog.Program {
	b := prog.NewBuilder("storechain")
	far := prog.MemRef{Pattern: prog.MemRandom, Stream: 7, WorkingSet: 256 << 10}
	nblocks := 1 + rng.Intn(3)
	for blk := 0; blk < nblocks; blk++ {
		if blk > 0 {
			b.NewBlock()
		}
		v := uarch.IntReg(rng.Intn(4))
		switch rng.Intn(3) {
		case 0:
			b.Load(v, uarch.IntReg(8), far)
		case 1:
			b.Int(uarch.OpDiv, v, v, uarch.IntReg(rng.Intn(8)))
		default:
			b.Int(uarch.OpMul, v, v, v)
		}
		for links := 1 + rng.Intn(5); links > 0; links-- {
			// A one-word working set pins the stream to one address; two
			// words alternate, so some loads miss the store before them.
			ref := prog.MemRef{Pattern: prog.MemStride, Stream: 1 + rng.Intn(3), StrideBytes: 8, WorkingSet: 8}
			if rng.Intn(4) == 0 {
				ref.WorkingSet = 16
			}
			addr := uarch.IntReg(8 + rng.Intn(4))
			if rng.Intn(3) == 0 {
				// The load's address operand arrives late, so it may
				// start polling after the store it feeds has parked.
				b.Int([]uarch.Opcode{uarch.OpMul, uarch.OpDiv}[rng.Intn(2)], addr, addr, uarch.IntReg(12))
			}
			b.Store(v, uarch.IntReg(8+rng.Intn(4)), ref)
			next := uarch.IntReg(rng.Intn(4))
			b.Load(next, addr, ref)
			if rng.Intn(3) == 0 {
				b.Int(uarch.OpAdd, next, next, uarch.IntReg(rng.Intn(8)))
			}
			v = next
		}
		b.Branch(uarch.IntReg(4+rng.Intn(4)), 0.5, rng.Float64())
		p := 0.1 + 0.8*rng.Float64()
		b.Edge(rng.Intn(nblocks), p).Edge(rng.Intn(nblocks), 1-p)
	}
	return b.MustBuild()
}

// TestStoreParkingMatchesPolling is the exactness proof of parked
// store-data waits: a parked store must complete in the same cycle, and
// at the same place among that cycle's events, as the per-cycle poll it
// replaces, so every Metrics field, the policy's steering work and the
// error text must match the polling core. It covers the golden table's
// setups over the quick suite, and random store→load chains (where a
// woken store's wake and its poll share a cycle's drain), each cycle by
// cycle and with idle skipping, with the invariant checks on — which in
// the polling runs include the drain-key order parking relies on.
func TestStoreParkingMatchesPolling(t *testing.T) {
	saved := int64(0)
	withInvariants(func() {
		uops := goldenUops()
		for _, s := range goldenSetups() {
			cfg := DefaultConfig(s.clusters)
			for _, sp := range workload.QuickSuite() {
				saved += checkParkingExact(t, fmt.Sprintf("%s/%s", s.name, sp.Name), cfg, s.make, s.trace(cfg, sp, uops))
			}
		}
		policies := []struct {
			name string
			make func() steer.Policy
		}{
			{"OP", func() steer.Policy { return &steer.OP{} }},
			{"VC", func() steer.Policy { return steer.NewVC(2) }},
			{"ModN", func() steer.Policy { return &steer.ModN{} }},
		}
		programs := 16
		if testing.Short() {
			programs = 6
		}
		for seed := int64(1); seed <= int64(programs); seed++ {
			p := storeChainProgram(rand.New(rand.NewSource(seed)))
			partition.AnnotateVC(p, partition.Options{NumVC: 2})
			tr := trace.Expand(p, trace.Options{NumUops: 600, Seed: seed})
			for _, n := range []int{2, 4} {
				for _, pol := range policies {
					label := fmt.Sprintf("storechain-%d/%dc/%s", seed, n, pol.name)
					saved += checkParkingExact(t, label, DefaultConfig(n), pol.make, tr)
				}
			}
		}
	})
	if saved <= 0 {
		t.Fatalf("parking saved %d store-data polls: no store ever waited on its data", saved)
	}
}

// TestStoreParkingDrainedEvents pins the event work of BenchmarkCoreHotLoop's
// OP-mcf input (10k uops of the memory-bound mcf simpoint under OP, two
// clusters): the parking core drains no store-data poll at all, and the
// count of events it does drain per uop is pinned, beside the polling
// reference's. A change to either count is a change in the work the core
// does per simulated uop, and must be explained before it is re-pinned.
func TestStoreParkingDrainedEvents(t *testing.T) {
	sp := workload.ByName("mcf")
	p := sp.Program.Clone()
	partition.AnnotateVC(p, partition.Options{NumVC: 2, NumClusters: 2})
	tr := trace.Expand(p, trace.Options{NumUops: 10_000, Seed: sp.Seed})
	run := func(polls bool) *Core {
		old := storeDataPolls
		storeDataPolls = polls
		defer func() { storeDataPolls = old }()
		core, err := NewCore(DefaultConfig(2), &steer.OP{}, tr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.Run(); err != nil {
			t.Fatal(err)
		}
		return core
	}
	parked, polled := run(false), run(true)
	if n := parked.evStats.drained[evStoreData]; n != 0 {
		t.Errorf("parking core drained %d store-data polls", n)
	}
	for _, c := range []struct {
		name string
		core *Core
		want int64
	}{{"parked", parked, 18_346}, {"polled", polled, 204_148}} {
		got := int64(0)
		for _, n := range c.core.evStats.drained {
			got += n
		}
		if got != c.want {
			t.Errorf("%s core drained %d events (%.3f per uop; by kind %v), pinned %d (%.3f)",
				c.name, got, float64(got)/10_000, c.core.evStats.drained, c.want, float64(c.want)/10_000)
		}
	}
}
