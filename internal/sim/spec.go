package sim

import (
	"fmt"
	"sync"

	"clustersim/internal/engine"
	"clustersim/internal/workload"
)

// suiteIdentity is the per-simpoint data SpecFromJob validates against.
type suiteIdentity struct {
	seed int64
	fp   uint64
}

// suiteIndex memoizes the suite's (name → seed, program fingerprint)
// map for SpecFromJob's identity checks.
var suiteIndex = sync.OnceValue(func() map[string]suiteIdentity {
	idx := map[string]suiteIdentity{}
	for _, sp := range workload.Suite() {
		idx[sp.Name] = suiteIdentity{seed: sp.Seed, fp: sp.Program.Fingerprint()}
	}
	return idx
})

// passEqual compares the cacheable signature of two compiler passes (the
// same fields engine folds into result keys).
func passEqual(a, b *engine.Pass) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	return a.Kind == b.Kind && a.NumTargets == b.NumTargets &&
		a.RegionMaxOps == b.RegionMaxOps && a.MaxChainLen == b.MaxChainLen
}

// SetupFromSpec resolves a declarative setup spec (the clusterd wire form)
// into a runnable Setup. Unknown kinds are rejected so a typo in a request
// fails the submission, not the simulation.
func SetupFromSpec(s engine.SetupSpec) (engine.Setup, error) {
	clusters := s.NumClusters
	if clusters == 0 {
		clusters = 2
	}
	numVC := s.NumVC
	if numVC == 0 {
		numVC = clusters
	}
	switch s.Kind {
	case "OP":
		return SetupOP(clusters), nil
	case "OP-nostall":
		return SetupOPNoStall(clusters), nil
	case "one-cluster":
		return SetupOneCluster(clusters), nil
	case "OB":
		if s.RegionMaxOps > 0 {
			return SetupScoped("OB", clusters, s.RegionMaxOps), nil
		}
		return SetupOB(clusters), nil
	case "RHOP":
		if s.RegionMaxOps > 0 {
			return SetupScoped("RHOP", clusters, s.RegionMaxOps), nil
		}
		return SetupRHOP(clusters), nil
	case "VC":
		if s.RegionMaxOps > 0 {
			return SetupScoped("VC", clusters, s.RegionMaxOps), nil
		}
		return SetupVCChain(numVC, clusters, s.MaxChainLen), nil
	case "VC-comm":
		return SetupVCComm(numVC, clusters), nil
	}
	return engine.Setup{}, fmt.Errorf("sim: unknown setup kind %q", s.Kind)
}

// SpecFromJob converts a runnable job back to its declarative wire form —
// the inverse of JobFromSpec, used by remote runners to ship a job to a
// clusterd worker. Not every job can travel: setups built around opaque
// closures (custom Annotate passes, hand-rolled policies), machine-tweak
// closures, and workloads outside the synthetic suite have no declarative
// form and must execute locally. The returned error says which constraint
// failed so hybrid runners can route such jobs to a local fallback.
func SpecFromJob(job engine.Job) (engine.JobSpec, error) {
	if job.Simpoint == nil {
		return engine.JobSpec{}, fmt.Errorf("sim: job has no simpoint")
	}
	if job.Setup.Annotate != nil || job.Setup.Spec == nil {
		return engine.JobSpec{}, fmt.Errorf("sim: setup %q has no declarative spec (custom setups run locally only)", job.Setup.Label)
	}
	if job.Opts.MachineTweak != nil {
		return engine.JobSpec{}, fmt.Errorf("sim: machine-tweak closures cannot cross a process boundary")
	}
	// The spec must still describe the setup: Setup fields are exported,
	// so a caller may have mutated the setup after construction, and a
	// remote worker resolving the stale spec would silently simulate the
	// wrong configuration. Closure swaps (NewPolicy) are undetectable;
	// everything the result key depends on is checked.
	resolved, err := SetupFromSpec(*job.Setup.Spec)
	if err != nil {
		return engine.JobSpec{}, fmt.Errorf("sim: setup %q carries an unresolvable spec: %w", job.Setup.Label, err)
	}
	if resolved.Label != job.Setup.Label || resolved.NumClusters != job.Setup.NumClusters ||
		!passEqual(resolved.Pass, job.Setup.Pass) {
		return engine.JobSpec{}, fmt.Errorf("sim: setup %q was modified after construction; its declarative spec no longer describes it (rebuild it with a Setup* constructor)", job.Setup.Label)
	}
	suite, ok := suiteIndex()[job.Simpoint.Name]
	if !ok {
		return engine.JobSpec{}, fmt.Errorf("sim: workload %q is not a suite member (custom workloads run locally only)", job.Simpoint.Name)
	}
	// A remote worker resolves the spec against *its* suite by name, so a
	// custom program that happens to share a suite name must be caught
	// here — by seed and content — or the worker would silently simulate
	// the wrong program.
	if suite.seed != job.Simpoint.Seed || suite.fp != job.Simpoint.Program.Fingerprint() {
		return engine.JobSpec{}, fmt.Errorf("sim: workload %q does not match the suite's definition (custom workloads run locally only)", job.Simpoint.Name)
	}
	return engine.JobSpec{
		Simpoint: job.Simpoint.Name,
		Setup:    *job.Setup.Spec,
		Opts:     engine.OptionsSpec{NumUops: job.Opts.NumUops, WarmupUops: job.Opts.WarmupUops},
	}, nil
}

// JobFromSpec resolves a serialized job spec into a runnable engine job:
// the simpoint is looked up in the synthetic suite (programs are never
// shipped — they are rebuilt deterministically from the suite tables) and
// the setup kind is mapped to its constructor.
func JobFromSpec(spec engine.JobSpec) (engine.Job, error) {
	sp := workload.ByName(spec.Simpoint)
	if sp == nil {
		return engine.Job{}, fmt.Errorf("sim: unknown simpoint %q", spec.Simpoint)
	}
	setup, err := SetupFromSpec(spec.Setup)
	if err != nil {
		return engine.Job{}, err
	}
	return engine.Job{Simpoint: sp, Setup: setup, Opts: spec.Opts.RunOptions()}, nil
}
