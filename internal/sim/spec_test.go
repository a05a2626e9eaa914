package sim

import (
	"encoding/json"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"clustersim/internal/engine"
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
		SetupKind("ADV", 2), SetupKind("LC", 2), SetupKind("SLC", 4), SetupKind("MOD", 2),
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
			name: "spec that does not resolve",
			job:  engine.Job{Simpoint: sp, Setup: SetupVC(-1, 2)},
			want: "num_vc -1 outside 1..32",
		},
		{
			name: "histogram run",
			job: engine.Job{Simpoint: sp, Setup: SetupOP(2),
				Opts: RunOptions{TrackHistograms: true}},
			want: "histogram",
		},
		{
			name: "machine out of bound",
			job: engine.Job{Simpoint: sp, Setup: SetupOP(2),
				Opts: RunOptions{Machine: engine.MachineSpec{LinkLatency: 65}}},
			want: "link_latency 65 outside 1..64",
		},
		{
			name: "negative run size",
			job:  engine.Job{Simpoint: sp, Setup: SetupOP(2), Opts: RunOptions{NumUops: -1}},
			want: "num_uops -1",
		},
		{
			name: "oversized run",
			job: engine.Job{Simpoint: sp, Setup: SetupOP(2),
				Opts: RunOptions{NumUops: maxWireUops, WarmupUops: 1}},
			want: "outside 0..4194304",
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

// A job travels only with a store key: SpecFromJob ok implies
// engine.ResultKey ok, so a fleet can shard every job it ships by key.
// The jobs span every constraint SpecFromJob checks, on both sides of it.
func TestSpecFromJobImpliesResultKey(t *testing.T) {
	sp := workload.ByName("mcf")
	var jobs []engine.Job
	for _, setup := range []Setup{SetupOP(2), SetupVC(2, 4), SetupScoped("RHOP", 2, 64),
		SetupVC(-1, 2), SetupKind("WAT", 2), {SetupSpec: engine.SetupSpec{Kind: "OB"}}} {
		for _, opts := range []RunOptions{
			{}, {NumUops: 3000, WarmupUops: 500}, {NumUops: -1}, {WarmupUops: -1},
			{NumUops: maxWireUops}, {NumUops: maxWireUops + 1}, {NumUops: 1 << 62, WarmupUops: 1 << 62},
			{TrackHistograms: true}, {Machine: engine.MachineSpec{IQ: 24}},
			{Machine: engine.MachineSpec{LinkLatency: 65}},
		} {
			jobs = append(jobs, engine.Job{Simpoint: sp, Setup: setup, Opts: opts})
		}
	}
	travelled := 0
	for _, job := range jobs {
		if _, err := SpecFromJob(job); err != nil {
			continue
		}
		travelled++
		if _, ok := engine.ResultKey(job); !ok {
			t.Errorf("%s %+v travels without a result key", job.Setup.Label, job.Opts)
		}
	}
	if travelled == 0 || travelled == len(jobs) {
		t.Errorf("%d of %d jobs travel: the cases miss one side of the check", travelled, len(jobs))
	}
}

// JobFromSpec bounds the run size a client can ask for: negative sizes
// and totals past maxWireUops are refused, the bound itself is accepted.
func TestJobFromSpecBoundsRunSize(t *testing.T) {
	for _, o := range []engine.OptionsSpec{
		{NumUops: -1}, {WarmupUops: -1},
		{NumUops: maxWireUops + 1}, {NumUops: maxWireUops, WarmupUops: 1},
		{NumUops: 1 << 62}, {NumUops: 1 << 62, WarmupUops: 1 << 62},
	} {
		if _, err := JobFromSpec(engine.JobSpec{Simpoint: "crafty", Setup: engine.SetupSpec{Kind: "OP"}, Opts: o}); err == nil {
			t.Errorf("%+v accepted", o)
		}
	}
	for _, o := range []engine.OptionsSpec{{}, {NumUops: maxWireUops}, {NumUops: maxWireUops - 500, WarmupUops: 500}} {
		if _, err := JobFromSpec(engine.JobSpec{Simpoint: "crafty", Setup: engine.SetupSpec{Kind: "OP"}, Opts: o}); err != nil {
			t.Errorf("%+v: %v", o, err)
		}
	}
}

// Machine overrides travel: every ablation machine survives the JSON wire
// round trip with its result key intact, and a Table 2 machine travels as
// no override at all.
func TestSpecJobRoundTripMachines(t *testing.T) {
	sp := workload.ByName("swim")
	eng := engine.New(engine.Options{})
	for _, m := range []engine.MachineSpec{
		{},
		{LinkLatency: 4},
		{IQ: 24},
		{Topology: "ring"},
		{CopyIssue: 2, LinkBandwidth: 2},
		{PrefetchDegree: engine.PrefetchOff},
		{PrefetchDegree: 8},
	} {
		job := engine.Job{Simpoint: sp, Setup: SetupVC(2, 4), Opts: RunOptions{NumUops: 9000, Machine: m}}
		spec, err := SpecFromJob(job)
		if err != nil {
			t.Fatalf("%+v: SpecFromJob: %v", m, err)
		}
		raw, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Contains(string(raw), `"machine"`); got != (m != engine.MachineSpec{}) {
			t.Errorf("%+v: wire form %s", m, raw)
		}
		var wire engine.JobSpec
		if err := json.Unmarshal(raw, &wire); err != nil {
			t.Fatal(err)
		}
		back, err := JobFromSpec(wire)
		if err != nil {
			t.Fatalf("%+v: JobFromSpec: %v", m, err)
		}
		if back.Opts.Machine != m {
			t.Errorf("round-tripped machine %+v, want %+v", back.Opts.Machine, m)
		}
		k1, ok1 := eng.ResultKey(job)
		k2, ok2 := eng.ResultKey(back)
		if !ok1 || !ok2 || k1 != k2 {
			t.Errorf("%+v: result keys diverge after round trip:\n  %q (%v)\n  %q (%v)", m, k1, ok1, k2, ok2)
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

// JobFromSpec validates every setup field before a job exists: a count
// out of range, a negative cap, or a field the kind ignores is refused
// here, so no job can reach a pass or policy that would panic on it.
func TestJobFromSpecRejectsBadSetups(t *testing.T) {
	for _, s := range []engine.SetupSpec{
		{Kind: "WAT"},
		{Kind: "VC", NumVC: -1},
		{Kind: "VC", NumVC: 33},
		{Kind: "VC-comm", NumVC: -1},
		{Kind: "OB", NumClusters: -1},
		{Kind: "OP", NumClusters: 33},
		{Kind: "VC", MaxChainLen: -3},
		{Kind: "RHOP", RegionMaxOps: -1},
		{Kind: "VC", NumClusters: 4, NumVC: 2, RegionMaxOps: 16},
		{Kind: "VC", RegionMaxOps: 16, MaxChainLen: 8},
		{Kind: "OP", NumVC: 4},
		{Kind: "ADV", RegionMaxOps: 16},
		{Kind: "OB", MaxChainLen: 8},
		{Kind: "VC-comm", RegionMaxOps: 16},
	} {
		if job, err := JobFromSpec(engine.JobSpec{Simpoint: "crafty", Setup: s}); err == nil {
			t.Errorf("%+v accepted as %q", s, job.Setup.Label)
		}
	}
	// A field set to its default is not "set": OP on two clusters may
	// name num_vc 2, and region-scoped VC may name num_vc = clusters.
	for _, s := range []engine.SetupSpec{
		{Kind: "OP", NumClusters: 2, NumVC: 2},
		{Kind: "VC", NumClusters: 4, NumVC: 4, RegionMaxOps: 16},
		{Kind: "VC", NumClusters: 4, NumVC: 8},
	} {
		if _, err := JobFromSpec(engine.JobSpec{Simpoint: "crafty", Setup: s}); err != nil {
			t.Errorf("%+v: %v", s, err)
		}
	}
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
