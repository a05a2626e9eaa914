package client

import (
	"context"
	"sync"

	"clustersim/internal/engine"
	"clustersim/internal/sim"
)

// Hybrid returns a Runner that routes each job to the substrate that can
// run it: jobs with a declarative wire form (sim.SpecFromJob) go to
// remote — a Runner or a fleet — and the rest (custom programs,
// histogram runs) to local. A mixed batch streams from both at once,
// every result under its submitted index. Stats sums both halves.
func Hybrid(remote, local engine.Runner) engine.Runner {
	return &hybrid{remote: remote, local: local}
}

type hybrid struct{ remote, local engine.Runner }

// travels reports whether job has a declarative wire form.
func travels(job engine.Job) bool {
	_, err := sim.SpecFromJob(job)
	return err == nil
}

func (h *hybrid) Run(ctx context.Context, job engine.Job) *engine.Result {
	if travels(job) {
		return h.remote.Run(ctx, job)
	}
	return h.local.Run(ctx, job)
}

// Stream hands a batch that needs one substrate straight to it; a mixed
// batch is split in two and the halves' results are merged.
func (h *hybrid) Stream(ctx context.Context, jobs []engine.Job) <-chan engine.JobResult {
	var remoteJobs, localJobs []engine.Job
	var remoteIdx, localIdx []int
	for i, job := range jobs {
		if travels(job) {
			remoteJobs, remoteIdx = append(remoteJobs, job), append(remoteIdx, i)
		} else {
			localJobs, localIdx = append(localJobs, job), append(localIdx, i)
		}
	}
	switch {
	case len(localJobs) == 0:
		return h.remote.Stream(ctx, jobs)
	case len(remoteJobs) == 0:
		return h.local.Stream(ctx, jobs)
	}
	out := make(chan engine.JobResult, len(jobs))
	var wg sync.WaitGroup
	merge := func(in <-chan engine.JobResult, idx []int) {
		defer wg.Done()
		for jr := range in {
			jr.Index = idx[jr.Index]
			out <- jr
		}
	}
	wg.Add(2)
	go merge(h.remote.Stream(ctx, remoteJobs), remoteIdx)
	go merge(h.local.Stream(ctx, localJobs), localIdx)
	go func() {
		wg.Wait()
		close(out)
	}()
	return out
}

func (h *hybrid) Stats() engine.CacheStats {
	return h.remote.Stats().Add(h.local.Stats())
}
