package steer

// Complexity counts the steering-logic operations a policy performs,
// quantifying the paper's Table 1: the hardware-only scheme needs
// dependence checking (location-table reads serialized within the decode
// bundle) and a vote unit, while the hybrid scheme needs only workload
// counters and a small VC→PC mapping table.
type Complexity struct {
	// DependenceChecks counts location-table reads (one per register
	// source consulted).
	DependenceChecks uint64
	// VoteOps counts per-candidate-cluster vote evaluations.
	VoteOps uint64
	// SerializedDecisions counts steering decisions that had to observe an
	// earlier same-bundle decision (the serialization §2.1 identifies as
	// the critical complexity).
	SerializedDecisions uint64
	// CounterReads counts workload-balance counter consultations.
	CounterReads uint64
	// MapReads and MapWrites count VC→PC mapping-table accesses.
	MapReads, MapWrites uint64
	// Steered counts micro-ops steered (denominator for per-uop rates).
	Steered uint64
}

// Add accumulates other into c.
func (c *Complexity) Add(other Complexity) {
	c.DependenceChecks += other.DependenceChecks
	c.VoteOps += other.VoteOps
	c.SerializedDecisions += other.SerializedDecisions
	c.CounterReads += other.CounterReads
	c.MapReads += other.MapReads
	c.MapWrites += other.MapWrites
	c.Steered += other.Steered
}

// Sub returns c − other, counter by counter.
func (c Complexity) Sub(other Complexity) Complexity {
	return Complexity{
		DependenceChecks:    c.DependenceChecks - other.DependenceChecks,
		VoteOps:             c.VoteOps - other.VoteOps,
		SerializedDecisions: c.SerializedDecisions - other.SerializedDecisions,
		CounterReads:        c.CounterReads - other.CounterReads,
		MapReads:            c.MapReads - other.MapReads,
		MapWrites:           c.MapWrites - other.MapWrites,
		Steered:             c.Steered - other.Steered,
	}
}

// Times returns c with every counter multiplied by k.
func (c Complexity) Times(k uint64) Complexity {
	return Complexity{
		DependenceChecks:    c.DependenceChecks * k,
		VoteOps:             c.VoteOps * k,
		SerializedDecisions: c.SerializedDecisions * k,
		CounterReads:        c.CounterReads * k,
		MapReads:            c.MapReads * k,
		MapWrites:           c.MapWrites * k,
		Steered:             c.Steered * k,
	}
}

// PerKuop returns the rate of ops per thousand steered micro-ops.
func PerKuop(count, steered uint64) float64 {
	if steered == 0 {
		return 0
	}
	return float64(count) * 1000 / float64(steered)
}

// HasUnit reports the Table 1 yes/no rows derived from the counters.
type UnitUsage struct {
	DependenceCheck bool
	WorkloadBalance bool
	VoteUnit        bool
	MappingTable    bool
}

// Units derives which hardware units the accumulated activity implies.
func (c *Complexity) Units() UnitUsage {
	return UnitUsage{
		DependenceCheck: c.DependenceChecks > 0,
		WorkloadBalance: c.CounterReads > 0,
		VoteUnit:        c.VoteOps > 0,
		MappingTable:    c.MapReads+c.MapWrites > 0,
	}
}
