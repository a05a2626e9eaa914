package engine

import (
	"fmt"
	"strings"
	"testing"

	"clustersim/internal/pipeline"
	"clustersim/internal/workload"
)

// The reference keys: the fmt-built derivation the appended keys
// replaced, kept verbatim so any byte the rewrite moves shows up here.
// Existing content-addressed stores are keyed by these bytes.

func refFingerprint(sp *workload.Simpoint) string {
	return fmt.Sprintf("%s|s%d|h%016x", sp.Name, sp.Seed, sp.Program.Fingerprint())
}

func refResultKey(job Job, rs *resolved) string {
	var m string
	if job.Opts.Machine != (MachineSpec{}) || job.Opts.TrackHistograms {
		_, m, _ = machine(rs.clusters, &job.Opts)
	}
	return fmt.Sprintf("result|v%d|%s", CodecVersion, fmt.Sprintf("%s|%s|p%s|c%d|u%d|w%d|t%s",
		refFingerprint(job.Simpoint), rs.label, rs.sig, rs.clusters,
		job.Opts.NumUops, job.Opts.WarmupUops, m))
}

func refProgramKey(sp *workload.Simpoint, rs *resolved, cfg *pipeline.Config) string {
	sig := "clean"
	if rs.pass != nil {
		o := rs.passOptions(cfg)
		sig = fmt.Sprintf("%s|vc%d|ii%d|if%d|cl%d|ch%d|rg%d",
			rs.pass.name, o.NumVC, o.IssueInt, o.IssueFP, o.CommLatency, o.MaxChainLen, o.RegionMaxOps)
	}
	return refFingerprint(sp) + "|" + sig
}

// keySetups are the setups whose keys TestResultKeysStableAcrossRewrite
// pins, as specs.
var keySetups = []SetupSpec{
	{Kind: "OP", NumClusters: 2}, {Kind: "OP-nostall", NumClusters: 2},
	{Kind: "one-cluster", NumClusters: 2}, {Kind: "OB", NumClusters: 2},
	{Kind: "RHOP", NumClusters: 2}, {Kind: "VC", NumClusters: 2, NumVC: 2},
	{Kind: "VC", NumClusters: 4, NumVC: 2}, {Kind: "VC-comm", NumClusters: 2, NumVC: 2},
	{Kind: "VC", NumClusters: 2, NumVC: 2, MaxChainLen: 4},
	{Kind: "ADV", NumClusters: 2}, {Kind: "LC", NumClusters: 2},
	{Kind: "SLC", NumClusters: 2}, {Kind: "MOD", NumClusters: 2},
	{Kind: "VC", NumClusters: 2, RegionMaxOps: 16}, {Kind: "OB", NumClusters: 2, RegionMaxOps: 48},
	{Kind: "RHOP", NumClusters: 2, RegionMaxOps: 256},
	{Kind: "VC", NumClusters: 2, NumVC: 2, MaxChainLen: 64},
	{Kind: "VC", NumClusters: 4, NumVC: 3}, {Kind: "VC", NumClusters: 4, NumVC: 4},
	{Kind: "VC", NumClusters: 4, NumVC: 8}, {Kind: "OP", NumClusters: 4},
	{Kind: "OB", NumClusters: 4}, {Kind: "RHOP", NumClusters: 4},
	{Kind: "VC-comm", NumClusters: 4, NumVC: 2}, {Kind: "one-cluster", NumClusters: 4},
}

// keyOptions are the run options the reports key: the Table 2 machine,
// a warmup, every ablation's machine override, and a histogram run.
var keyOptions = []RunOptions{
	{NumUops: 3000},
	{NumUops: 3000, WarmupUops: 500},
	{NumUops: 120_000, Machine: MachineSpec{LinkLatency: 1}},
	{NumUops: 3000, Machine: MachineSpec{LinkLatency: 2}},
	{NumUops: 3000, Machine: MachineSpec{LinkLatency: 4}},
	{NumUops: 3000, Machine: MachineSpec{LinkLatency: 8}},
	{NumUops: 3000, Machine: MachineSpec{IQ: 24}},
	{NumUops: 3000, Machine: MachineSpec{IQ: 48}},
	{NumUops: 3000, Machine: MachineSpec{IQ: 96}},
	{NumUops: 3000, Machine: MachineSpec{Topology: "p2p"}},
	{NumUops: 3000, Machine: MachineSpec{Topology: "ring"}},
	{NumUops: 3000, Machine: MachineSpec{CopyIssue: 1, LinkBandwidth: 1}},
	{NumUops: 3000, Machine: MachineSpec{CopyIssue: 2, LinkBandwidth: 2}},
	{NumUops: 3000, Machine: MachineSpec{CopyIssue: 4, LinkBandwidth: 4}},
	{NumUops: 3000, Machine: MachineSpec{PrefetchDegree: PrefetchOff}},
	{NumUops: 3000, Machine: MachineSpec{PrefetchDegree: 2}},
	{NumUops: 3000, Machine: MachineSpec{PrefetchDegree: 4}},
	{NumUops: 3000, Machine: MachineSpec{PrefetchDegree: 8}},
	{NumUops: 3000, TrackHistograms: true},
}

// The appended result, store and program keys are byte-equal to the fmt
// reference over every suite simpoint, pinned setup and reported run
// option; a histogram run keys the in-memory cache but has no store key.
func TestAppendedKeysMatchFmtReference(t *testing.T) {
	for _, spec := range keySetups {
		setup, err := NewSetup(spec)
		if err != nil {
			t.Fatal(err)
		}
		rs := setup.memo
		for _, opt := range keyOptions {
			cfg, _, err := machine(rs.clusters, &opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, sp := range workload.Suite() {
				job := Job{Simpoint: sp, Setup: setup, Opts: opt}
				want := refResultKey(job, &rs)
				rs, m, err := resolveJob(&job)
				if got := resultKey(&job, &rs, m); err != nil || got != want {
					t.Fatalf("result key drifted:\n got %q (%v)\nwant %q", got, err, want)
				}
				got, ok := ResultKey(job)
				if opt.TrackHistograms {
					if ok {
						t.Errorf("histogram run has store key %q", got)
					}
				} else if !ok || got != want {
					t.Fatalf("store key drifted:\n got %q (%v)\nwant %q", got, ok, want)
				}
				if got, want := rs.programKey(sp, &cfg), refProgramKey(sp, &rs, &cfg); got != want {
					t.Fatalf("program key drifted:\n got %q\nwant %q", got, want)
				}
			}
		}
	}
}

// NewSetup resolves once: every later key reads its memo, not resolve.
// A hand-built literal, an edited Setup and a fresh NewSetup of the same
// spec key identically, because a memo whose spec no longer matches is
// never read.
func TestSetupMemo(t *testing.T) {
	sp := workload.ByName("crafty")
	key := func(s Setup) string {
		t.Helper()
		k, ok := ResultKey(Job{Simpoint: sp, Setup: s, Opts: RunOptions{NumUops: 3000}})
		if !ok {
			t.Fatalf("%+v: no key", s.SetupSpec)
		}
		return k
	}
	vc24, err := NewSetup(SetupSpec{Kind: "VC", NumClusters: 4, NumVC: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := key(vc24)

	// A marked memo shows which keys read it.
	marked := vc24
	marked.memo.label = "memo"
	if k := key(marked); !strings.Contains(k, "|memo|") {
		t.Errorf("NewSetup's memo was not read: %q", k)
	}
	if k := key(Setup{SetupSpec: vc24.SetupSpec}); k != want {
		t.Errorf("hand-built literal keys %q, want %q", k, want)
	}
	if k := key(Setup{SetupSpec: SetupSpec{Kind: "VC", NumClusters: 4, NumVC: 2}, Label: "VC"}); k != want {
		t.Errorf("literal with a stale label keys %q, want %q", k, want)
	}

	// Edit the marked setup to the 2-cluster VC: its memo is stale, so
	// the edit must key exactly as a fresh NewSetup of the edited spec.
	edited := marked
	edited.NumClusters = 2
	fresh, err := NewSetup(SetupSpec{Kind: "VC", NumClusters: 2, NumVC: 2})
	if err != nil {
		t.Fatal(err)
	}
	if k, want := key(edited), key(fresh); k != want {
		t.Errorf("edited setup keys %q, want %q", k, want)
	}

	// An edit to a spec that does not resolve fails like one built so.
	edited.NumVC = -1
	if err := (Job{Simpoint: sp, Setup: edited}).Validate(); err == nil {
		t.Error("edited setup with num_vc -1 validates")
	}
	if _, ok := ResultKey(Job{Simpoint: sp, Setup: edited}); ok {
		t.Error("edited setup with num_vc -1 has a key")
	}
}
