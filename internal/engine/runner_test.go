package engine_test

import (
	"context"
	"slices"
	"sync"
	"testing"

	"clustersim/internal/engine"
	"clustersim/internal/sim"
)

// progressLog records every progress call.
type progressLog struct {
	mu     sync.Mutex
	done   []int
	totals []int
	labels []string
}

func (l *progressLog) record(done, total int, label string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.done = append(l.done, done)
	l.totals = append(l.totals, total)
	l.labels = append(l.labels, label)
}

// check asserts one call per job, done covering 1..len(jobs), the final
// total equal to the jobs submitted, and one "simpoint/setup" label per job.
func (l *progressLog) check(t *testing.T, jobs []engine.Job) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.done) != len(jobs) {
		t.Fatalf("fn called %d times for %d jobs", len(l.done), len(jobs))
	}
	done := sorted(l.done)
	for i, d := range done {
		if d != i+1 {
			t.Fatalf("done values %v, want 1..%d", done, len(jobs))
		}
	}
	if total := slices.Max(l.totals); total != len(jobs) {
		t.Errorf("total reached %d, want %d", total, len(jobs))
	}
	var want []string
	for _, j := range jobs {
		want = append(want, j.Simpoint.Name+"/"+j.Setup.Label)
	}
	if got := sorted(l.labels); !slices.Equal(got, sorted(want)) {
		t.Errorf("labels %v, want %v", got, want)
	}
}

func sorted[T int | string](xs []T) []T {
	xs = slices.Clone(xs)
	slices.Sort(xs)
	return xs
}

// The progress wrapper reports each job once, through Run and through
// Stream, and leaves Stats untouched.
func TestProgress(t *testing.T) {
	ctx := context.Background()
	jobs := []engine.Job{
		quickJob("gzip-1", sim.SetupOP(2)),
		quickJob("gzip-1", sim.SetupVC(2, 2)),
		quickJob("mcf", sim.SetupOP(2)),
	}

	t.Run("Run", func(t *testing.T) {
		var log progressLog
		r := engine.Progress(engine.New(engine.Options{Parallelism: 2}), log.record)
		var wg sync.WaitGroup
		for _, j := range jobs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if res := r.Run(ctx, j); res.Err != nil {
					t.Error(res.Err)
				}
			}()
		}
		wg.Wait()
		log.check(t, jobs)
	})

	t.Run("Stream", func(t *testing.T) {
		var log progressLog
		eng := engine.New(engine.Options{Parallelism: 2})
		r := engine.Progress(eng, log.record)
		for jr := range r.Stream(ctx, jobs) {
			if jr.Result.Err != nil {
				t.Error(jr.Result.Err)
			}
		}
		log.check(t, jobs)
		for _, total := range log.totals {
			if total != len(jobs) {
				t.Fatalf("total %d mid-stream, want %d: Stream counts its jobs up front", total, len(jobs))
			}
		}
		// One Stream is forwarded in arrival order, so done only grows.
		if !slices.IsSorted(log.done) {
			t.Errorf("done out of order within one stream: %v", log.done)
		}
		if r.Stats() != eng.Stats() {
			t.Errorf("Stats not passed through: %+v vs %+v", r.Stats(), eng.Stats())
		}
	})
}
