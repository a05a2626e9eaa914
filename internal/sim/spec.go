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

// SpecFromJob converts a runnable job back to its declarative wire form —
// the inverse of JobFromSpec, used by remote runners to ship a job to a
// clusterd worker. Not every job can travel: workloads outside the
// synthetic suite have no declarative form, histogram runs need the
// histograms the wire result does not carry, and a setup or machine
// override that does not resolve fails anywhere. The returned error says
// which constraint failed so hybrid runners can route such jobs to a
// local fallback.
func SpecFromJob(job engine.Job) (engine.JobSpec, error) {
	if job.Simpoint == nil {
		return engine.JobSpec{}, fmt.Errorf("sim: job has no simpoint")
	}
	if job.Opts.TrackHistograms {
		return engine.JobSpec{}, fmt.Errorf("sim: histogram runs run locally only (the wire result carries no histograms)")
	}
	if _, err := engine.NewSetup(job.Setup.SetupSpec); err != nil {
		return engine.JobSpec{}, fmt.Errorf("sim: setup %q: %w", job.Setup.Label, err)
	}
	if err := job.Opts.Machine.Validate(); err != nil {
		return engine.JobSpec{}, fmt.Errorf("sim: %w", err)
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
	spec := engine.JobSpec{
		Simpoint: job.Simpoint.Name,
		Setup:    job.Setup.SetupSpec,
		Opts:     engine.OptionsSpec{NumUops: job.Opts.NumUops, WarmupUops: job.Opts.WarmupUops},
	}
	if job.Opts.Machine != (engine.MachineSpec{}) {
		m := job.Opts.Machine
		spec.Opts.Machine = &m
	}
	return spec, nil
}

// JobFromSpec resolves a serialized job spec into a runnable engine job:
// the simpoint is looked up in the synthetic suite (programs are never
// shipped — they are rebuilt deterministically from the suite tables) and
// the setup spec is resolved and validated by engine.NewSetup, the
// machine override by MachineSpec.Validate. A negative trace length or
// warmup is refused too: it would size the trace negative.
func JobFromSpec(spec engine.JobSpec) (engine.Job, error) {
	sp := workload.ByName(spec.Simpoint)
	if sp == nil {
		return engine.Job{}, fmt.Errorf("sim: unknown simpoint %q", spec.Simpoint)
	}
	if spec.Opts.NumUops < 0 || spec.Opts.WarmupUops < 0 {
		return engine.Job{}, fmt.Errorf("sim: negative num_uops %d or warmup_uops %d",
			spec.Opts.NumUops, spec.Opts.WarmupUops)
	}
	setup, err := engine.NewSetup(spec.Setup)
	if err != nil {
		return engine.Job{}, err
	}
	opts := spec.Opts.RunOptions()
	if err := opts.Machine.Validate(); err != nil {
		return engine.Job{}, err
	}
	return engine.Job{Simpoint: sp, Setup: setup, Opts: opts}, nil
}
