// Package steer implements the runtime steering policies evaluated in the
// paper (Table 3): the occupancy-aware hardware-only baseline OP, the naive
// one-cluster policy, the static-follow policy used by the software-only
// schemes (OB, RHOP), and the paper's hybrid virtual-cluster mapper VC. It
// also accounts the steering-logic operations each policy performs, backing
// the paper's Table 1 complexity comparison.
package steer

import (
	"clustersim/internal/trace"
	"clustersim/internal/uarch"
)

// Context is the hardware state a policy may consult when steering one
// micro-op. Policies are invoked sequentially in program order, and the
// pipeline updates value locations between invocations — the "sequential
// steering" semantics of §2.1.
type Context interface {
	// NumClusters returns the physical cluster count.
	NumClusters() int
	// Occupancy returns cluster c's issue-queue occupancy (the workload
	// balance counters).
	Occupancy(c int) int
	// InFlight returns cluster c's dispatched-but-uncommitted micro-ops.
	InFlight(c int) int
	// HasSpace reports whether cluster c can accept a micro-op of the
	// given class right now (issue-queue slot plus a free register).
	HasSpace(c int, class uarch.Class) bool
	// ValueClusters returns the bitmask of clusters currently holding the
	// value of architectural register r, or 0 when untracked.
	ValueClusters(r uarch.Reg) uint32
}

// Decision is a steering outcome: a target cluster, or a stall of the
// steering stage for this cycle.
type Decision struct {
	// Cluster is the chosen physical cluster (valid when !Stall).
	Cluster int
	// Stall requests the frontend to hold this micro-op (and everything
	// younger) until the next cycle.
	Stall bool
}

// Policy steers micro-ops to clusters.
//
// Contract for stalls: calling Steer again for the same micro-op on an
// unchanged machine (every Context answer the same) after it returned a
// stall must stall again and change nothing but Complexity, by the same
// delta on every such repeat. The first stalled call may update other
// state (a slice policy rotates, a mapper remaps a leader); repeats may
// not. The pipeline relies on this to fast-forward a machine whose only
// activity is a repeated stalled Steer: it charges k idle cycles as k
// times the delta of one repeat, so Table 1 still counts every attempt.
type Policy interface {
	// Name returns the configuration label (paper Table 3).
	Name() string
	// Steer decides the cluster for u.
	Steer(ctx Context, u *trace.Uop) Decision
	// Reset clears run-local state (e.g. the VC mapping table).
	Reset()
	// Complexity exposes the accumulated steering-logic accounting.
	Complexity() *Complexity
}

// stall is the canonical stall decision.
var stall = Decision{Stall: true}
