package cluster

import (
	"fmt"

	"clustersim/internal/uarch"
)

// Config sizes one cluster (paper Table 2, per-cluster column).
type Config struct {
	// IQInt, IQFP, IQCopy are issue-queue capacities.
	IQInt, IQFP, IQCopy int
	// IssueInt, IssueFP, IssueCopy are per-cycle issue widths.
	IssueInt, IssueFP, IssueCopy int
	// IntRegs, FPRegs size the physical register files.
	IntRegs, FPRegs int
}

// DefaultConfig returns the paper's per-cluster parameters: 48-entry INT IQ
// at 2/cycle, 48-entry FP IQ at 2/cycle, 24-entry COPY queue at 1/cycle,
// 256-entry INT and FP register files.
func DefaultConfig() Config {
	return Config{
		IQInt: 48, IQFP: 48, IQCopy: 24,
		IssueInt: 2, IssueFP: 2, IssueCopy: 1,
		IntRegs: 256, FPRegs: 256,
	}
}

// Cluster is one backend partition: issue queues, unpipelined-FU occupancy
// and register-file accounting. The pipeline drives it.
type Cluster struct {
	// ID is the cluster index.
	ID  int
	cfg Config

	// IntQ, FPQ, CopyQ are the three issue queues.
	IntQ, FPQ, CopyQ *IQ

	// freeInt, freeFP count available physical registers.
	freeInt, freeFP int

	// divFree are the cycles at which the unpipelined dividers free up.
	intDivFree, fpDivFree int64

	// InFlight counts dispatched-but-not-committed micro-ops steered here;
	// this is the occupancy signal the steering counters expose.
	InFlight int
}

// New builds a cluster.
func New(id int, cfg Config) *Cluster {
	c := &Cluster{
		ID:    id,
		cfg:   cfg,
		IntQ:  NewIQ(fmt.Sprintf("c%d.int", id), cfg.IQInt, cfg.IssueInt),
		FPQ:   NewIQ(fmt.Sprintf("c%d.fp", id), cfg.IQFP, cfg.IssueFP),
		CopyQ: NewIQ(fmt.Sprintf("c%d.copy", id), cfg.IQCopy, cfg.IssueCopy),
	}
	c.IntQ.cluster, c.FPQ.cluster, c.CopyQ.cluster = id, id, id
	c.freeInt, c.freeFP = cfg.IntRegs, cfg.FPRegs
	return c
}

// QueueFor returns the issue queue used by the given micro-op class.
// Loads, stores and branches share the integer queue and issue ports.
func (c *Cluster) QueueFor(class uarch.Class) *IQ {
	switch class {
	case uarch.ClassFP:
		return c.FPQ
	case uarch.ClassCopy:
		return c.CopyQ
	default:
		return c.IntQ
	}
}

// Occupancy returns the summed issue-queue occupancy, the cheap workload
// signal hardware steering uses.
func (c *Cluster) Occupancy() int {
	return c.IntQ.Len() + c.FPQ.Len() + c.CopyQ.Len()
}

// HasRegFor reports whether a physical register of the right bank is free.
func (c *Cluster) HasRegFor(r uarch.Reg) bool {
	if r.IsFP() {
		return c.freeFP > 0
	}
	return c.freeInt > 0
}

// AllocReg claims a physical register for the destination bank of r.
func (c *Cluster) AllocReg(r uarch.Reg) {
	if r.IsFP() {
		if c.freeFP <= 0 {
			panic(fmt.Sprintf("cluster %d: fp regfile underflow", c.ID))
		}
		c.freeFP--
		return
	}
	if c.freeInt <= 0 {
		panic(fmt.Sprintf("cluster %d: int regfile underflow", c.ID))
	}
	c.freeInt--
}

// FreeReg returns a physical register to the bank of r.
func (c *Cluster) FreeReg(r uarch.Reg) {
	if r.IsFP() {
		c.freeFP++
		if c.freeFP > c.cfg.FPRegs {
			panic(fmt.Sprintf("cluster %d: fp regfile overflow", c.ID))
		}
		return
	}
	c.freeInt++
	if c.freeInt > c.cfg.IntRegs {
		panic(fmt.Sprintf("cluster %d: int regfile overflow", c.ID))
	}
}

// FreeRegs reports the free count for the bank of r.
func (c *Cluster) FreeRegs(r uarch.Reg) int {
	if r.IsFP() {
		return c.freeFP
	}
	return c.freeInt
}

// DividerFree reports whether the unpipelined divider for the opcode is
// available at the given cycle; ReserveDivider books it through the op's
// latency. Pipelined opcodes are always acceptable.
func (c *Cluster) DividerFree(op uarch.Opcode, cycle int64) bool {
	switch op {
	case uarch.OpDiv:
		return c.intDivFree <= cycle
	case uarch.OpFDiv:
		return c.fpDivFree <= cycle
	}
	return true
}

// ReserveDivider books the divider for the op's duration.
func (c *Cluster) ReserveDivider(op uarch.Opcode, cycle int64) {
	switch op {
	case uarch.OpDiv:
		c.intDivFree = cycle + int64(op.Latency())
	case uarch.OpFDiv:
		c.fpDivFree = cycle + int64(op.Latency())
	}
}

// Reset restores post-construction state (between runs).
func (c *Cluster) Reset() {
	c.IntQ.Reset()
	c.FPQ.Reset()
	c.CopyQ.Reset()
	c.freeInt, c.freeFP = c.cfg.IntRegs, c.cfg.FPRegs
	c.intDivFree, c.fpDivFree = 0, 0
	c.InFlight = 0
}
