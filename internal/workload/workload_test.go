package workload

import (
	"math"
	"sync"
	"testing"

	"clustersim/internal/prog"
	"clustersim/internal/trace"
	"clustersim/internal/uarch"
)

func TestGenerateValidPrograms(t *testing.T) {
	for _, spec := range append(specint2000(), specfp2000()...) {
		p := Generate(spec, 1)
		if err := prog.Validate(p); err != nil {
			t.Errorf("%s: %v", spec.Name, err)
		}
		if p.NumStaticOps() < 8 {
			t.Errorf("%s: only %d static ops", spec.Name, p.NumStaticOps())
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := specint2000()[0]
	a := Generate(spec, 7)
	b := Generate(spec, 7)
	if a.NumStaticOps() != b.NumStaticOps() {
		t.Fatal("same seed, different op counts")
	}
	var opsA, opsB []prog.StaticOp
	a.ForEachOp(func(_ *prog.Block, _ int, op *prog.StaticOp) { opsA = append(opsA, *op) })
	b.ForEachOp(func(_ *prog.Block, _ int, op *prog.StaticOp) { opsB = append(opsB, *op) })
	for i := range opsA {
		if opsA[i] != opsB[i] {
			t.Fatalf("op %d differs", i)
		}
	}
}

func TestFPBenchmarksUseFPOps(t *testing.T) {
	for _, spec := range specfp2000() {
		p := Generate(spec, 1)
		fp := 0
		p.ForEachOp(func(_ *prog.Block, _ int, op *prog.StaticOp) {
			if op.Opcode.Class() == uarch.ClassFP {
				fp++
			}
		})
		if fp == 0 {
			t.Errorf("%s: no FP ops in an FP benchmark", spec.Name)
		}
	}
}

func TestIntBenchmarksAvoidFPOps(t *testing.T) {
	for _, spec := range specint2000() {
		if spec.FPRatio > 0 {
			continue // eon is deliberately mixed
		}
		p := Generate(spec, 1)
		p.ForEachOp(func(_ *prog.Block, _ int, op *prog.StaticOp) {
			if op.Opcode.Class() == uarch.ClassFP {
				t.Errorf("%s: FP op in an INT benchmark", spec.Name)
			}
		})
	}
}

func TestEonIsMixed(t *testing.T) {
	// eon is C++ with real FP content (FPRatio 0.3) despite being SPECint;
	// the generator must emit FP ops for it.
	p := Generate(SpecByName("eon"), 1)
	fp := 0
	p.ForEachOp(func(_ *prog.Block, _ int, op *prog.StaticOp) {
		if op.Opcode.Class() == uarch.ClassFP {
			fp++
		}
	})
	if fp == 0 {
		t.Error("eon generated no FP ops despite FPRatio 0.3")
	}
}

func TestSuiteComposition(t *testing.T) {
	ints := IntSuite()
	fps := FPSuite()
	if len(ints) != 26 {
		t.Errorf("IntSuite has %d simpoints, want 26 (paper Fig. 5a)", len(ints))
	}
	if len(fps) != 14 {
		t.Errorf("FPSuite has %d simpoints, want 14 (paper Fig. 5b)", len(fps))
	}
	names := map[string]bool{}
	for _, sp := range Suite() {
		if names[sp.Name] {
			t.Errorf("duplicate simpoint %s", sp.Name)
		}
		names[sp.Name] = true
	}
	for _, want := range []string{"gzip-1", "gzip-5", "mcf", "eon-3", "vortex-2", "swim", "art-2", "apsi"} {
		if !names[want] {
			t.Errorf("missing simpoint %s", want)
		}
	}
}

func TestWeightsSumPerBenchmark(t *testing.T) {
	byBench := map[string]float64{}
	for _, sp := range Suite() {
		byBench[sp.Bench] += sp.Weight
	}
	for bench, sum := range byBench {
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: weights sum to %g, want 1", bench, sum)
		}
	}
}

func TestPhaseWeights(t *testing.T) {
	w := PhaseWeights("gzip", 5)
	if len(w) != 5 {
		t.Fatalf("got %d weights", len(w))
	}
	sum := 0.0
	for _, x := range w {
		if x < 0 {
			t.Errorf("negative weight %g", x)
		}
		sum += x
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("weights sum to %g", sum)
	}
	// Deterministic.
	w2 := PhaseWeights("gzip", 5)
	for i := range w {
		if w[i] != w2[i] {
			t.Fatal("PhaseWeights not deterministic")
		}
	}
	if got := PhaseWeights("x", 1); len(got) != 1 || got[0] != 1 {
		t.Errorf("single phase weights = %v", got)
	}
}

func TestSimpointsOfBenchmarkDiffer(t *testing.T) {
	sps := buildSimpoints(specint2000()[0]) // gzip ×5
	if len(sps) != 5 {
		t.Fatalf("gzip simpoints = %d", len(sps))
	}
	if sps[0].Program.NumStaticOps() == sps[1].Program.NumStaticOps() &&
		sps[0].Seed == sps[1].Seed {
		t.Error("simpoints should differ in structure or seed")
	}
}

func TestByName(t *testing.T) {
	sp := ByName("mcf")
	if sp == nil || sp.Bench != "mcf" || sp.FP {
		t.Fatalf("ByName(mcf) = %+v", sp)
	}
	if ByName("nonexistent") != nil {
		t.Error("ByName should return nil for unknown names")
	}
}

func TestQuickSuite(t *testing.T) {
	qs := QuickSuite()
	if len(qs) != 8 {
		t.Errorf("QuickSuite has %d entries, want 8", len(qs))
	}
	for _, sp := range qs {
		if sp.Weight != 1 {
			t.Errorf("%s: quick weight %g, want 1", sp.Name, sp.Weight)
		}
	}
}

// The suite is built once per process: callers on any goroutine share
// its programs, but every call returns Simpoint structs of its own, so
// one caller reweighing (as QuickSuite does) never shows in another's.
func TestSuiteSharedAcrossGoroutines(t *testing.T) {
	const callers = 9
	got := make([][]*Simpoint, callers)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var sps []*Simpoint
			switch g % 3 {
			case 0:
				sps = Suite()
			case 1:
				sps = QuickSuite()
			default:
				sps = []*Simpoint{ByName("gzip-2"), ByName("swim")}
			}
			for _, sp := range sps {
				sp.Program.Fingerprint()
				sp.Weight = -1
			}
			got[g] = sps
		}(g)
	}
	wg.Wait()
	programs := map[string]*prog.Program{}
	for _, sp := range Suite() {
		if sp.Weight <= 0 {
			t.Errorf("%s: weight %g leaked from another caller's struct", sp.Name, sp.Weight)
		}
		programs[sp.Name] = sp.Program
	}
	if w := ByName("gzip-1").Weight; w == 1 {
		t.Error("QuickSuite's unit weight leaked into ByName's gzip-1")
	}
	for g, sps := range got {
		for _, sp := range sps {
			if sp.Program != programs[sp.Name] {
				t.Errorf("caller %d: %s program is not the shared build", g, sp.Name)
			}
		}
	}
}

func TestTracesExpandFromSuite(t *testing.T) {
	for _, sp := range QuickSuite() {
		tr := trace.Expand(sp.Program, trace.Options{NumUops: 2000, Seed: sp.Seed})
		if len(tr.Uops) != 2000 {
			t.Errorf("%s: trace length %d", sp.Name, len(tr.Uops))
		}
		mem, branches := 0, 0
		for i := range tr.Uops {
			if tr.Uops[i].IsMem() {
				mem++
			}
			if tr.Uops[i].IsBranch() {
				branches++
			}
		}
		if mem == 0 {
			t.Errorf("%s: no memory ops", sp.Name)
		}
		if branches == 0 {
			t.Errorf("%s: no branches", sp.Name)
		}
	}
}

func TestMcfIsPointerChasing(t *testing.T) {
	sp := ByName("mcf")
	chase := false
	sp.Program.ForEachOp(func(_ *prog.Block, _ int, op *prog.StaticOp) {
		if op.Opcode == uarch.OpLoad && op.Mem.Pattern == prog.MemChase &&
			op.Src1 == op.Dst {
			chase = true
		}
	})
	if !chase {
		t.Error("mcf should contain serialized pointer-chase loads")
	}
}
