// Package prog defines the static program representation consumed by the
// compiler-side steering passes and expanded into dynamic traces by the
// trace package: basic blocks of static micro-ops connected by a control
// flow graph with edge probabilities.
//
// A Program is what the paper's "Intel production compiler code generation
// step" sees: the compiler passes in internal/partition annotate each
// StaticOp with a virtual-cluster id, a chain-leader mark, or a static
// physical-cluster assignment, and the hardware reads those annotations off
// the dynamic micro-ops at steer time.
package prog

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sync/atomic"

	"clustersim/internal/uarch"
)

// MemPattern describes the synthetic address stream of a static memory
// operation. The trace expander turns the pattern into concrete addresses.
type MemPattern uint8

const (
	// MemNone marks a non-memory op.
	MemNone MemPattern = iota
	// MemStride walks an array with a fixed stride per execution.
	MemStride
	// MemRandom draws uniformly from the working set.
	MemRandom
	// MemChase models pointer chasing: the next address depends on the
	// previously loaded value, defeating any spatial locality.
	MemChase
	// MemStack hits a small, hot region (spills/locals); almost always L1.
	MemStack
)

// String returns the pattern name.
func (m MemPattern) String() string {
	switch m {
	case MemNone:
		return "none"
	case MemStride:
		return "stride"
	case MemRandom:
		return "random"
	case MemChase:
		return "chase"
	case MemStack:
		return "stack"
	}
	return fmt.Sprintf("mem(%d)", uint8(m))
}

// MemRef describes the memory behaviour of a load or store static op.
type MemRef struct {
	// Pattern selects the address generator.
	Pattern MemPattern
	// Stream identifies the logical data structure; ops sharing a stream
	// share an address sequence (so a load and a store to the same stream
	// may alias and exercise store-to-load forwarding).
	Stream int
	// StrideBytes is the per-iteration stride for MemStride.
	StrideBytes int
	// WorkingSet is the footprint in bytes the stream wanders over.
	WorkingSet int
}

// Annotation carries the compiler-side steering decisions for one static op.
// The zero value means "no decision": the hardware-only policies ignore
// annotations entirely.
type Annotation struct {
	// VC is the virtual-cluster id assigned by the VC partitioner, or -1.
	VC int
	// Leader marks the op as a chain leader: the runtime VC→PC mapping
	// table is refreshed when this op is steered.
	Leader bool
	// Static is the physical cluster chosen by a software-only policy
	// (OB/RHOP), or -1.
	Static int
}

// NoAnnotation is the annotation carried by unannotated ops.
var NoAnnotation = Annotation{VC: -1, Static: -1}

// StaticOp is one micro-op in a basic block.
type StaticOp struct {
	// Opcode selects operation and latency.
	Opcode uarch.Opcode
	// Dst is the destination register, or RegNone.
	Dst uarch.Reg
	// Src1, Src2 are the source registers; RegNone when absent. For stores
	// Src1 is the data register and the address registers are folded into
	// the memory pattern (address generation still occupies the op).
	Src1, Src2 uarch.Reg
	// Mem describes the address stream for loads/stores.
	Mem MemRef
	// TakenProb is the probability that a branch op is taken; the trace
	// expander samples it and the CFG edge decides the successor.
	TakenProb float64
	// Bias in [0,1] models how learnable the branch is: 1 means a predictor
	// warms up to ~perfect accuracy, 0 means outcomes are i.i.d. coin flips
	// at TakenProb.
	Bias float64
	// Ann holds the compiler steering annotations.
	Ann Annotation
}

// IsMem reports whether the op accesses memory.
func (o *StaticOp) IsMem() bool { return o.Opcode.IsMem() }

// Edge is a CFG edge with a traversal probability.
type Edge struct {
	// To is the target block id.
	To int
	// Prob is the probability this edge is taken when leaving the block.
	Prob float64
}

// Block is a basic block: a straight-line run of static ops with outgoing
// CFG edges. A block with no successors terminates the program walk (the
// trace expander then restarts from the entry, modeling the enclosing outer
// loop of the region).
type Block struct {
	// ID is the block's index in Program.Blocks.
	ID int
	// Ops are the block's static micro-ops in program order.
	Ops []StaticOp
	// Succs are the outgoing CFG edges; probabilities must sum to 1 unless
	// the block is terminal.
	Succs []Edge
}

// Program is a static program: a CFG of basic blocks.
type Program struct {
	// Name identifies the program (benchmark-simpoint).
	Name string
	// Blocks holds the basic blocks; Blocks[0] is the entry.
	Blocks []*Block

	// fp memoizes Fingerprint; 0 means not yet computed.
	fp atomic.Uint64
}

// Fingerprint returns a content hash of the program: name, CFG shape and
// every op's opcode, registers, memory pattern and branch statistics.
// Compiler annotations are excluded — run paths clear and re-derive them.
// Programs with equal fingerprints behave identically under expansion and
// simulation, which is what the engine's caches key on. The hash is
// computed once and kept on the program, so resubmissions skip the walk:
// a program must not change outside its annotations once fingerprinted
// (Clone it instead; clones start unhashed).
func (p *Program) Fingerprint() uint64 {
	if fp := p.fp.Load(); fp != 0 {
		return fp
	}
	h := fnv.New64a()
	buf := make([]byte, 8)
	w64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf, v)
		h.Write(buf)
	}
	wf := func(v float64) { w64(math.Float64bits(v)) }
	h.Write([]byte(p.Name))
	for _, b := range p.Blocks {
		w64(uint64(b.ID))
		w64(uint64(len(b.Ops)))
		for i := range b.Ops {
			op := &b.Ops[i]
			w64(uint64(op.Opcode)<<32 | uint64(uint8(op.Mem.Pattern)))
			w64(uint64(uint16(op.Dst))<<32 | uint64(uint16(op.Src1))<<16 | uint64(uint16(op.Src2)))
			w64(uint64(op.Mem.Stream))
			w64(uint64(op.Mem.StrideBytes))
			w64(uint64(op.Mem.WorkingSet))
			wf(op.TakenProb)
			wf(op.Bias)
		}
		for _, e := range b.Succs {
			w64(uint64(e.To))
			wf(e.Prob)
		}
	}
	fp := h.Sum64()
	p.fp.Store(fp)
	return fp
}

// NumStaticOps returns the total static op count.
func (p *Program) NumStaticOps() int {
	n := 0
	for _, b := range p.Blocks {
		n += len(b.Ops)
	}
	return n
}

// ForEachOp calls fn for every static op with its block and intra-block
// index. Iteration follows block order, then op order.
func (p *Program) ForEachOp(fn func(b *Block, i int, op *StaticOp)) {
	for _, b := range p.Blocks {
		for i := range b.Ops {
			fn(b, i, &b.Ops[i])
		}
	}
}

// ClearAnnotations resets every op's annotation to NoAnnotation. The
// experiment harness calls this between compiler passes so policies never
// see a previous pass's decisions.
func (p *Program) ClearAnnotations() {
	p.ForEachOp(func(_ *Block, _ int, op *StaticOp) { op.Ann = NoAnnotation })
}

// Clone deep-copies the program. Experiment harnesses clone before running
// a compiler pass so concurrent runs with different annotations never share
// static ops.
func (p *Program) Clone() *Program {
	out := &Program{Name: p.Name, Blocks: make([]*Block, len(p.Blocks))}
	for i, b := range p.Blocks {
		nb := &Block{
			ID:    b.ID,
			Ops:   append([]StaticOp(nil), b.Ops...),
			Succs: append([]Edge(nil), b.Succs...),
		}
		out.Blocks[i] = nb
	}
	return out
}

// OpAddr names a static op by block id and index, for error reporting.
type OpAddr struct {
	Block, Index int
}

// String renders the address as "b3.7".
func (a OpAddr) String() string { return fmt.Sprintf("b%d.%d", a.Block, a.Index) }
