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

// maxWireUops bounds num_uops + warmup_uops of a job that crosses the
// wire. A worker expands a job's whole trace up front at about 24 B/uop,
// so 1<<22 (about 4.2M uops) caps one request near 96 MiB of trace: 35×
// the 120k default run, yet far below the gigabytes one request could
// otherwise make a worker allocate.
const maxWireUops = 1 << 22

// checkSizes refuses a run size no worker should be asked for: negative,
// or past maxWireUops in total.
func checkSizes(numUops, warmupUops int) error {
	if numUops < 0 || warmupUops < 0 || numUops > maxWireUops || warmupUops > maxWireUops-numUops {
		return fmt.Errorf("sim: num_uops %d + warmup_uops %d outside 0..%d", numUops, warmupUops, maxWireUops)
	}
	return nil
}

// SpecFromJob converts a runnable job back to its declarative wire form —
// the inverse of JobFromSpec, used by remote runners to ship a job to a
// clusterd worker. Not every job can travel: workloads outside the
// synthetic suite have no declarative form, histogram runs need the
// histograms the wire result does not carry, a run size JobFromSpec
// would refuse is refused here, and a setup or machine override that
// does not resolve fails anywhere. The returned error says which
// constraint failed so hybrid runners can route such jobs to a local
// fallback. A job it accepts has an engine.ResultKey.
func SpecFromJob(job engine.Job) (engine.JobSpec, error) {
	if job.Simpoint == nil {
		return engine.JobSpec{}, fmt.Errorf("sim: job has no simpoint")
	}
	if job.Opts.TrackHistograms {
		return engine.JobSpec{}, fmt.Errorf("sim: histogram runs run locally only (the wire result carries no histograms)")
	}
	if err := job.Validate(); err != nil {
		return engine.JobSpec{}, fmt.Errorf("sim: %w", err)
	}
	if err := checkSizes(job.Opts.NumUops, job.Opts.WarmupUops); err != nil {
		return engine.JobSpec{}, err
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
// machine override by Job.Validate. A run size outside
// 0..maxWireUops is refused too: a negative one would size the trace
// negative, an oversized one ask the worker for gigabytes.
func JobFromSpec(spec engine.JobSpec) (engine.Job, error) {
	sp := workload.ByName(spec.Simpoint)
	if sp == nil {
		return engine.Job{}, fmt.Errorf("sim: unknown simpoint %q", spec.Simpoint)
	}
	if err := checkSizes(spec.Opts.NumUops, spec.Opts.WarmupUops); err != nil {
		return engine.Job{}, err
	}
	setup, err := engine.NewSetup(spec.Setup)
	if err != nil {
		return engine.Job{}, err
	}
	job := engine.Job{Simpoint: sp, Setup: setup, Opts: spec.Opts.RunOptions()}
	if err := job.Validate(); err != nil {
		return engine.Job{}, err
	}
	return job, nil
}
