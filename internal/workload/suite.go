package workload

import (
	"fmt"
	"hash/fnv"
	"sync"

	"clustersim/internal/prog"
)

// Simpoint is one weighted simulation point: a generated program variant
// plus the trace-expansion seed and its PinPoints weight within the
// benchmark.
type Simpoint struct {
	// Name is the figure label ("gzip-1", "mcf", …).
	Name string
	// Bench is the parent benchmark ("gzip").
	Bench string
	// FP marks SPECfp membership.
	FP bool
	// Weight is the PinPoints weight within the parent benchmark; weights
	// of one benchmark's simpoints sum to 1.
	Weight float64
	// Program is the synthesized static program.
	Program *prog.Program
	// Seed feeds trace expansion.
	Seed int64
}

// seedOf derives a stable seed from a string.
func seedOf(s string) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return int64(h.Sum64() & 0x7fffffffffffffff)
}

// buildSimpoints expands one spec into its weighted simulation points. A
// benchmark with one simpoint keeps the bare name (mcf); multi-simpoint
// benchmarks get the paper's -N suffixes (gzip-1 … gzip-5). Each simpoint
// perturbs the generator seed, so phases differ structurally, as real
// program phases do.
func buildSimpoints(spec Spec) []*Simpoint {
	weights := PhaseWeights(spec.Name, spec.Simpoints)
	out := make([]*Simpoint, 0, spec.Simpoints)
	for i := 0; i < spec.Simpoints; i++ {
		name := spec.Name
		if spec.Simpoints > 1 {
			name = fmt.Sprintf("%s-%d", spec.Name, i+1)
		}
		genSeed := seedOf(name + "/gen")
		out = append(out, &Simpoint{
			Name:    name,
			Bench:   spec.Name,
			FP:      spec.FP,
			Weight:  weights[i],
			Program: Generate(spec, genSeed),
			Seed:    seedOf(name + "/trace"),
		})
	}
	return out
}

// suite is the one build of every simulation point per process (INT then
// FP, in table order), with a name index. Generating all 40 programs
// costs milliseconds and megabytes, and nothing mutates a generated
// program (the engine annotates clones), so every accessor shares these
// programs and hands out fresh Simpoint structs over them.
var suite = sync.OnceValues(func() ([]*Simpoint, map[string]*Simpoint) {
	var all []*Simpoint
	for _, spec := range append(specint2000(), specfp2000()...) {
		all = append(all, buildSimpoints(spec)...)
	}
	byName := make(map[string]*Simpoint, len(all))
	for _, sp := range all {
		byName[sp.Name] = sp
	}
	return all, byName
})

// members returns fresh copies of the built simpoints keep accepts.
func members(keep func(*Simpoint) bool) []*Simpoint {
	all, _ := suite()
	var out []*Simpoint
	for _, sp := range all {
		if keep(sp) {
			cp := *sp
			out = append(out, &cp)
		}
	}
	return out
}

// IntSuite returns the 26 SPECint simulation points of Figure 5(a).
func IntSuite() []*Simpoint {
	return members(func(sp *Simpoint) bool { return !sp.FP })
}

// FPSuite returns the 14 SPECfp simulation points of Figure 5(b).
func FPSuite() []*Simpoint {
	return members(func(sp *Simpoint) bool { return sp.FP })
}

// Suite returns the full CPU2000 suite (INT then FP). Each call returns
// fresh Simpoint structs, so a caller may reweigh its own; the Programs
// are shared by every call and must not be mutated (annotate a Clone).
func Suite() []*Simpoint {
	return members(func(*Simpoint) bool { return true })
}

// quickPicks names one representative per distinct behaviour class.
var quickPicks = map[string]bool{
	"gzip-1": true, "gcc-1": true, "mcf": true, "crafty": true,
	"swim": true, "galgel": true, "art-1": true, "ammp": true,
}

// QuickSuite returns a reduced suite (one representative per distinct
// behaviour class) for tests, examples and smoke runs, each weighted 1.
// Like Suite, it returns fresh structs over shared programs.
func QuickSuite() []*Simpoint {
	out := members(func(sp *Simpoint) bool { return quickPicks[sp.Name] })
	for _, sp := range out {
		sp.Weight = 1
	}
	return out
}

// ByName returns a fresh copy of the simpoint with the given name, or
// nil. Its Program is shared, as in Suite.
func ByName(name string) *Simpoint {
	_, byName := suite()
	sp, ok := byName[name]
	if !ok {
		return nil
	}
	cp := *sp
	return &cp
}

// SpecByName returns the benchmark spec with the given name; it panics for
// unknown names (specs are a fixed compile-time table).
func SpecByName(name string) Spec {
	for _, s := range append(specint2000(), specfp2000()...) {
		if s.Name == name {
			return s
		}
	}
	panic(fmt.Sprintf("workload: no spec %q", name))
}
