// Package workload synthesizes the evaluation workloads: a SPEC CPU2000-like
// suite of programs whose dependence structure, ILP, memory behaviour and
// branch predictability echo the published character of each benchmark, plus
// a PinPoints-style phase selector that assigns weights to simulation points.
//
// This substitutes for the paper's inputs: the paper runs IA32 traces of
// SPEC CPU2000 selected by PinPoints, but steering quality depends on
// dependence-chain shape, ILP, and the sources of load imbalance (cache
// misses, serial chains, branchy control flow), which are exactly the axes
// the generator spans.
package workload

import "clustersim/internal/prog"

// Spec describes the synthetic character of one benchmark.
type Spec struct {
	// Name is the SPEC benchmark name (e.g. "gzip").
	Name string
	// FP marks SPECfp members.
	FP bool
	// Chains is the number of independent dependence chains (the ILP the
	// steering mechanisms can spread across clusters).
	Chains int
	// CrossDeps is the probability an op's second source reads another
	// chain, merging chains and creating inter-cluster traffic pressure.
	CrossDeps float64
	// FPRatio is the fraction of compute ops that are floating point.
	FPRatio float64
	// LoadRatio and StoreRatio are memory-op fractions of all ops.
	LoadRatio, StoreRatio float64
	// MulRatio and DivRatio are long-latency fractions of compute ops.
	MulRatio, DivRatio float64
	// BlockSize is ops per basic block (≈ 1/branch density).
	BlockSize int
	// Diamonds is the fraction of blocks ending in a two-way branch.
	Diamonds float64
	// TakenProb and Bias parameterize branch outcomes (Bias→1 means
	// learnable periodic behaviour; →0 means i.i.d. coin flips).
	TakenProb, Bias float64
	// WorkingSet is the memory footprint in bytes.
	WorkingSet int
	// MemPattern is the dominant address pattern.
	MemPattern prog.MemPattern
	// Streams is the number of distinct memory streams.
	Streams int
	// StackRatio is the fraction of memory ops hitting the hot stack
	// region (spills/locals: L1-resident, with store→load forwarding).
	StackRatio float64
	// Bushy is the probability a compute op expands into a small
	// expression tree (side ops on temporaries merging into the chain) —
	// the per-iteration dataflow width of real loop bodies, and the
	// "critical dependent pairs" a too-fine VC partition splits (§5.4).
	Bushy float64
	// Simpoints is the number of PinPoints simulation points (1..5); the
	// paper's per-benchmark trace counts are mirrored in the suite.
	Simpoints int
}

// specint2000 returns the SPECint 2000 specs. Parameters echo each
// benchmark's published behaviour: mcf is a pointer-chasing cache thrasher,
// gcc and perlbmk are branchy with irregular footprints, bzip2 and crafty
// are compute-dense with decent ILP, etc.
func specint2000() []Spec {
	return []Spec{
		{Name: "gzip", Chains: 4, CrossDeps: 0.2, LoadRatio: 0.22, StoreRatio: 0.08,
			MulRatio: 0.04, BlockSize: 12, Diamonds: 0.6, TakenProb: 0.75, Bias: 0.85,
			WorkingSet: 192 << 10, MemPattern: prog.MemStride, Streams: 4, StackRatio: 0.25, Bushy: 0.3, Simpoints: 5},
		{Name: "vpr", Chains: 3, CrossDeps: 0.3, LoadRatio: 0.26, StoreRatio: 0.07,
			MulRatio: 0.06, BlockSize: 10, Diamonds: 0.7, TakenProb: 0.6, Bias: 0.55,
			WorkingSet: 1 << 20, MemPattern: prog.MemRandom, Streams: 4, StackRatio: 0.2, Bushy: 0.3, Simpoints: 2},
		{Name: "gcc", Chains: 4, CrossDeps: 0.35, LoadRatio: 0.25, StoreRatio: 0.12,
			MulRatio: 0.02, BlockSize: 8, Diamonds: 0.8, TakenProb: 0.65, Bias: 0.6,
			WorkingSet: 2 << 20, MemPattern: prog.MemRandom, Streams: 6, StackRatio: 0.25, Bushy: 0.25, Simpoints: 5},
		{Name: "mcf", Chains: 2, CrossDeps: 0.15, LoadRatio: 0.32, StoreRatio: 0.08,
			MulRatio: 0.02, BlockSize: 10, Diamonds: 0.7, TakenProb: 0.6, Bias: 0.5,
			WorkingSet: 4 << 20, MemPattern: prog.MemChase, Streams: 3, StackRatio: 0.08, Bushy: 0.15, Simpoints: 1},
		{Name: "crafty", Chains: 5, CrossDeps: 0.25, LoadRatio: 0.2, StoreRatio: 0.05,
			MulRatio: 0.05, BlockSize: 12, Diamonds: 0.6, TakenProb: 0.7, Bias: 0.8,
			WorkingSet: 96 << 10, MemPattern: prog.MemStride, Streams: 4, StackRatio: 0.3, Bushy: 0.4, Simpoints: 1},
		{Name: "parser", Chains: 3, CrossDeps: 0.25, LoadRatio: 0.28, StoreRatio: 0.1,
			MulRatio: 0.02, BlockSize: 9, Diamonds: 0.75, TakenProb: 0.62, Bias: 0.6,
			WorkingSet: 384 << 10, MemPattern: prog.MemChase, Streams: 4, StackRatio: 0.2, Bushy: 0.25, Simpoints: 1},
		{Name: "eon", Chains: 5, CrossDeps: 0.25, FPRatio: 0.3, LoadRatio: 0.24, StoreRatio: 0.1,
			MulRatio: 0.12, BlockSize: 14, Diamonds: 0.5, TakenProb: 0.7, Bias: 0.85,
			WorkingSet: 48 << 10, MemPattern: prog.MemStride, Streams: 4, StackRatio: 0.3, Bushy: 0.4, Simpoints: 3},
		{Name: "perlbmk", Chains: 3, CrossDeps: 0.35, LoadRatio: 0.27, StoreRatio: 0.12,
			MulRatio: 0.03, BlockSize: 8, Diamonds: 0.8, TakenProb: 0.64, Bias: 0.65,
			WorkingSet: 1536 << 10, MemPattern: prog.MemRandom, Streams: 5, StackRatio: 0.25, Bushy: 0.25, Simpoints: 1},
		{Name: "gap", Chains: 4, CrossDeps: 0.28, LoadRatio: 0.25, StoreRatio: 0.09,
			MulRatio: 0.08, BlockSize: 11, Diamonds: 0.6, TakenProb: 0.7, Bias: 0.75,
			WorkingSet: 512 << 10, MemPattern: prog.MemStride, Streams: 4, StackRatio: 0.2, Bushy: 0.3, Simpoints: 1},
		{Name: "vortex", Chains: 4, CrossDeps: 0.3, LoadRatio: 0.26, StoreRatio: 0.14,
			MulRatio: 0.03, BlockSize: 10, Diamonds: 0.65, TakenProb: 0.72, Bias: 0.8,
			WorkingSet: 1 << 20, MemPattern: prog.MemRandom, Streams: 6, StackRatio: 0.25, Bushy: 0.3, Simpoints: 2},
		{Name: "bzip2", Chains: 5, CrossDeps: 0.2, LoadRatio: 0.24, StoreRatio: 0.1,
			MulRatio: 0.05, BlockSize: 13, Diamonds: 0.55, TakenProb: 0.7, Bias: 0.8,
			WorkingSet: 3 << 20, MemPattern: prog.MemStride, Streams: 4, StackRatio: 0.2, Bushy: 0.35, Simpoints: 3},
		{Name: "twolf", Chains: 3, CrossDeps: 0.3, LoadRatio: 0.27, StoreRatio: 0.08,
			MulRatio: 0.07, BlockSize: 10, Diamonds: 0.7, TakenProb: 0.6, Bias: 0.55,
			WorkingSet: 512 << 10, MemPattern: prog.MemRandom, Streams: 4, StackRatio: 0.2, Bushy: 0.3, Simpoints: 1},
	}
}

// specfp2000 returns the SPECfp 2000 specs: wide independent FP chains
// (swim, galgel, lucas), sparse/irregular outliers (art, ammp, equake), and
// mixed INT/FP codes (mesa, apsi).
func specfp2000() []Spec {
	return []Spec{
		{Name: "wupwise", FP: true, Chains: 6, CrossDeps: 0.25, FPRatio: 0.7,
			LoadRatio: 0.24, StoreRatio: 0.08, MulRatio: 0.4, BlockSize: 24,
			Diamonds: 0.3, TakenProb: 0.9, Bias: 0.95, WorkingSet: 2 << 20,
			MemPattern: prog.MemStride, Streams: 6, StackRatio: 0.06, Bushy: 0.5, Simpoints: 1},
		{Name: "swim", FP: true, Chains: 8, CrossDeps: 0.18, FPRatio: 0.75,
			LoadRatio: 0.3, StoreRatio: 0.12, MulRatio: 0.45, BlockSize: 32,
			Diamonds: 0.2, TakenProb: 0.95, Bias: 0.97, WorkingSet: 12 << 20,
			MemPattern: prog.MemStride, Streams: 8, StackRatio: 0.03, Bushy: 0.55, Simpoints: 1},
		{Name: "applu", FP: true, Chains: 6, CrossDeps: 0.25, FPRatio: 0.72,
			LoadRatio: 0.28, StoreRatio: 0.1, MulRatio: 0.42, BlockSize: 28,
			Diamonds: 0.25, TakenProb: 0.93, Bias: 0.95, WorkingSet: 10 << 20,
			MemPattern: prog.MemStride, Streams: 6, StackRatio: 0.05, Bushy: 0.5, Simpoints: 1},
		{Name: "mesa", FP: true, Chains: 4, CrossDeps: 0.3, FPRatio: 0.45,
			LoadRatio: 0.24, StoreRatio: 0.1, MulRatio: 0.3, BlockSize: 14,
			Diamonds: 0.5, TakenProb: 0.75, Bias: 0.85, WorkingSet: 512 << 10,
			MemPattern: prog.MemStride, Streams: 5, StackRatio: 0.15, Bushy: 0.4, Simpoints: 1},
		{Name: "galgel", FP: true, Chains: 8, CrossDeps: 0.15, FPRatio: 0.8,
			LoadRatio: 0.26, StoreRatio: 0.08, MulRatio: 0.5, BlockSize: 36,
			Diamonds: 0.15, TakenProb: 0.95, Bias: 0.97, WorkingSet: 256 << 10,
			MemPattern: prog.MemStride, Streams: 6, StackRatio: 0.04, Bushy: 0.6, Simpoints: 1},
		{Name: "art", FP: true, Chains: 3, CrossDeps: 0.3, FPRatio: 0.6,
			LoadRatio: 0.34, StoreRatio: 0.06, MulRatio: 0.35, BlockSize: 16,
			Diamonds: 0.4, TakenProb: 0.88, Bias: 0.9, WorkingSet: 6 << 20,
			MemPattern: prog.MemStride, Streams: 3, StackRatio: 0.05, Bushy: 0.4, Simpoints: 2},
		{Name: "facerec", FP: true, Chains: 5, CrossDeps: 0.25, FPRatio: 0.65,
			LoadRatio: 0.27, StoreRatio: 0.08, MulRatio: 0.4, BlockSize: 22,
			Diamonds: 0.3, TakenProb: 0.9, Bias: 0.92, WorkingSet: 3 << 20,
			MemPattern: prog.MemStride, Streams: 5, StackRatio: 0.06, Bushy: 0.5, Simpoints: 1},
		{Name: "equake", FP: true, Chains: 4, CrossDeps: 0.3, FPRatio: 0.55,
			LoadRatio: 0.32, StoreRatio: 0.09, MulRatio: 0.35, BlockSize: 16,
			Diamonds: 0.4, TakenProb: 0.85, Bias: 0.85, WorkingSet: 5 << 20,
			MemPattern: prog.MemRandom, Streams: 5, StackRatio: 0.08, Bushy: 0.4, Simpoints: 1},
		{Name: "ammp", FP: true, Chains: 3, CrossDeps: 0.3, FPRatio: 0.6,
			LoadRatio: 0.3, StoreRatio: 0.08, MulRatio: 0.38, BlockSize: 15,
			Diamonds: 0.45, TakenProb: 0.8, Bias: 0.75, WorkingSet: 8 << 20,
			MemPattern: prog.MemChase, Streams: 4, StackRatio: 0.08, Bushy: 0.35, Simpoints: 1},
		{Name: "lucas", FP: true, Chains: 7, CrossDeps: 0.18, FPRatio: 0.75,
			LoadRatio: 0.28, StoreRatio: 0.1, MulRatio: 0.48, BlockSize: 30,
			Diamonds: 0.2, TakenProb: 0.94, Bias: 0.96, WorkingSet: 9 << 20,
			MemPattern: prog.MemStride, Streams: 7, StackRatio: 0.04, Bushy: 0.55, Simpoints: 1},
		{Name: "fma3d", FP: true, Chains: 5, CrossDeps: 0.3, FPRatio: 0.65,
			LoadRatio: 0.27, StoreRatio: 0.11, MulRatio: 0.4, BlockSize: 20,
			Diamonds: 0.35, TakenProb: 0.88, Bias: 0.9, WorkingSet: 4 << 20,
			MemPattern: prog.MemStride, Streams: 6, StackRatio: 0.08, Bushy: 0.45, Simpoints: 1},
		{Name: "sixtrack", FP: true, Chains: 6, CrossDeps: 0.22, FPRatio: 0.78,
			LoadRatio: 0.22, StoreRatio: 0.07, MulRatio: 0.5, BlockSize: 26,
			Diamonds: 0.25, TakenProb: 0.92, Bias: 0.95, WorkingSet: 128 << 10,
			MemPattern: prog.MemStride, Streams: 4, StackRatio: 0.1, Bushy: 0.5, Simpoints: 1},
		{Name: "apsi", FP: true, Chains: 5, CrossDeps: 0.3, FPRatio: 0.6,
			LoadRatio: 0.26, StoreRatio: 0.1, MulRatio: 0.4, BlockSize: 18,
			Diamonds: 0.35, TakenProb: 0.88, Bias: 0.9, WorkingSet: 2 << 20,
			MemPattern: prog.MemStride, Streams: 5, StackRatio: 0.1, Bushy: 0.45, Simpoints: 1},
	}
}
