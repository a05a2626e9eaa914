package sim

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"clustersim/internal/engine"
	"clustersim/internal/pipeline"
	"clustersim/internal/prog"
	"clustersim/internal/uarch"
	"clustersim/internal/workload"
)

// Every declarative setup constructor must survive the wire round trip:
// Job -> SpecFromJob -> JobFromSpec must land on the same configuration,
// including the engine's result-cache identity — that is what makes a
// remote worker's cached result interchangeable with a local one.
func TestSpecJobRoundTrip(t *testing.T) {
	sp := workload.ByName("gzip-1")
	setups := []Setup{
		SetupOP(2), SetupOP(4),
		SetupOPNoStall(2),
		SetupOneCluster(2),
		SetupOB(2), SetupRHOP(4),
		SetupVC(2, 2), SetupVC(2, 4), SetupVCChain(2, 2, 3),
		SetupVCComm(2, 2), SetupVCComm(2, 4),
		SetupScoped("OB", 2, 64), SetupScoped("RHOP", 2, 128), SetupScoped("VC", 2, 64),
	}
	eng := engine.New(engine.Options{})
	for _, setup := range setups {
		job := engine.Job{Simpoint: sp, Setup: setup, Opts: RunOptions{NumUops: 9000, WarmupUops: 500}}
		spec, err := SpecFromJob(job)
		if err != nil {
			t.Errorf("%s: SpecFromJob: %v", setup.Label, err)
			continue
		}
		back, err := JobFromSpec(spec)
		if err != nil {
			t.Errorf("%s: JobFromSpec: %v", setup.Label, err)
			continue
		}
		if back.Setup.Label != setup.Label {
			t.Errorf("%s: round-tripped label %q", setup.Label, back.Setup.Label)
		}
		if back.Setup.NumClusters != setup.NumClusters {
			t.Errorf("%s: round-tripped clusters %d, want %d", setup.Label, back.Setup.NumClusters, setup.NumClusters)
		}
		if back.Opts.NumUops != 9000 || back.Opts.WarmupUops != 500 {
			t.Errorf("%s: round-tripped opts %+v", setup.Label, back.Opts)
		}
		k1, ok1 := eng.ResultKey(job)
		k2, ok2 := eng.ResultKey(back)
		if !ok1 || !ok2 || k1 != k2 {
			t.Errorf("%s: result keys diverge after round trip:\n  %q (%v)\n  %q (%v)", setup.Label, k1, ok1, k2, ok2)
		}
	}
}

// Jobs with no declarative wire form must be rejected with an error that
// names the constraint, so hybrid runners can route them locally.
func TestSpecFromJobRejections(t *testing.T) {
	sp := workload.ByName("gzip-1")
	cases := []struct {
		name string
		job  engine.Job
		want string
	}{
		{
			name: "custom annotate closure",
			job: engine.Job{Simpoint: sp, Setup: Setup{
				Label: "custom", NumClusters: 2,
				Annotate:  func(*prog.Program) {},
				NewPolicy: SetupOP(2).NewPolicy,
			}},
			want: "no declarative spec",
		},
		{
			name: "hand-built setup without spec",
			job: engine.Job{Simpoint: sp, Setup: Setup{
				Label: "bare", NumClusters: 2, NewPolicy: SetupOP(2).NewPolicy,
			}},
			want: "no declarative spec",
		},
		{
			name: "setup mutated after construction",
			job: engine.Job{Simpoint: sp, Setup: func() Setup {
				s := SetupOP(2)
				s.NumClusters = 4 // stale Spec still says 2
				return s
			}()},
			want: "modified after construction",
		},
		{
			name: "machine tweak closure",
			job: engine.Job{Simpoint: sp, Setup: SetupOP(2),
				Opts: RunOptions{MachineTweak: func(cfg *pipeline.Config) {}, TweakKey: "x"}},
			want: "machine-tweak",
		},
		{
			name: "custom workload",
			job: engine.Job{Simpoint: &workload.Simpoint{
				Name: "homegrown", Bench: "homegrown", Weight: 1, Seed: 7,
				Program: sp.Program,
			}, Setup: SetupOP(2)},
			want: "not a suite member",
		},
		{
			name: "suite name, different program",
			job: engine.Job{Simpoint: &workload.Simpoint{
				Name: "gzip-1", Bench: "gzip", Weight: 1, Seed: sp.Seed,
				Program: differentProgram(),
			}, Setup: SetupOP(2)},
			want: "does not match the suite",
		},
	}
	for _, tc := range cases {
		_, err := SpecFromJob(tc.job)
		if err == nil {
			t.Errorf("%s: SpecFromJob accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// differentProgram builds a tiny program that is definitely not the
// suite's gzip-1 (different fingerprint).
func differentProgram() *prog.Program {
	b := prog.NewBuilder("gzip-1")
	b.Int(uarch.OpAdd, uarch.IntReg(1), uarch.IntReg(0), uarch.IntReg(0))
	b.Jump(0)
	return b.MustBuild()
}

// SpecFromJob keeps nothing of the programs it checks: the suite's own
// programs live for the whole process, but a custom workload's program
// is the caller's, and a memo keyed by program would keep every one ever
// checked reachable. Clones share the suite fingerprint (so the identity
// check passes) but are fresh pointers only this test holds.
func TestSpecFromJobReleasesPrograms(t *testing.T) {
	var freed atomic.Int64
	n := func() int {
		sps := workload.QuickSuite()
		for _, sp := range sps {
			sp.Program = sp.Program.Clone()
			runtime.SetFinalizer(sp.Program, func(*prog.Program) { freed.Add(1) })
			if _, err := SpecFromJob(engine.Job{Simpoint: sp, Setup: SetupOP(2)}); err != nil {
				t.Fatal(err)
			}
		}
		return len(sps)
	}()
	for i := 0; i < 50 && freed.Load() < int64(n); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond) // let queued finalizers run
	}
	if got := freed.Load(); got != int64(n) {
		t.Errorf("%d of %d checked programs collectable", got, n)
	}
}
