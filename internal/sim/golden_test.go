package sim

import (
	"testing"

	"clustersim/internal/workload"
)

// Golden regression values: exact cycle and copy counts for fixed
// (workload, setup) pairs at 5000 micro-ops. The simulator is fully
// deterministic, so any drift here means the machine model changed — either
// intentionally (update the table and say so in CHANGES.md, since every
// recorded result shifts) or by accident (a bug).
//
// Regenerate with: go test ./internal/sim -run TestGolden -golden-print
var goldenPrint = false

type goldenEntry struct {
	workload string
	setup    string
	cycles   int64
	copies   int64
}

func goldenSetups() map[string]Setup {
	return map[string]Setup{
		"OP":          SetupOP(2),
		"one-cluster": SetupOneCluster(2),
		"OB":          SetupOB(2),
		"RHOP":        SetupRHOP(2),
		"VC":          SetupVC(2, 2),
		"VC(2->4)":    SetupVC(2, 4),
	}
}

// goldenExpect pins exact cycle and copy counts recorded before the
// allocation-free hot-loop rewrite (windowed core state + event wheel):
// the rewrite is required to be byte-identical, and any future drift here
// means the machine model changed.
var goldenExpect = []goldenEntry{
	{"crafty", "OP", 3404, 198},
	{"crafty", "one-cluster", 4727, 0},
	{"crafty", "OB", 3904, 2291},
	{"crafty", "RHOP", 4334, 218},
	{"crafty", "VC", 3403, 611},
	{"crafty", "VC(2->4)", 3217, 862},
	{"gzip-1", "OP", 3883, 94},
	{"gzip-1", "one-cluster", 4440, 0},
	{"gzip-1", "OB", 3980, 2113},
	{"gzip-1", "RHOP", 4215, 124},
	{"gzip-1", "VC", 3904, 595},
	{"gzip-1", "VC(2->4)", 3330, 778},
	{"swim", "OP", 3595, 84},
	{"swim", "one-cluster", 4535, 0},
	{"swim", "OB", 4220, 2580},
	{"swim", "RHOP", 4203, 130},
	{"swim", "VC", 3611, 807},
	{"swim", "VC(2->4)", 3583, 1102},
	{"mcf", "OP", 170400, 86},
	{"mcf", "one-cluster", 197956, 0},
	{"mcf", "OB", 168699, 2041},
	{"mcf", "RHOP", 197896, 172},
	{"mcf", "VC", 172188, 362},
	{"mcf", "VC(2->4)", 165235, 519},
}

func TestGoldenDeterminism(t *testing.T) {
	// If this test fails after an intentional model change, re-record the
	// goldenExpect table via the loop that prints current values (set
	// goldenPrint = true locally) and note the shift in CHANGES.md.
	entries := []goldenEntry{}
	setups := goldenSetups()
	names := []string{"crafty", "gzip-1", "swim", "mcf"}
	setupOrder := []string{"OP", "one-cluster", "OB", "RHOP", "VC", "VC(2->4)"}

	// First pass: run everything twice and require exact equality — the
	// determinism half of the golden contract holds regardless of model
	// evolution.
	for _, wn := range names {
		sp := workload.ByName(wn)
		for _, sn := range setupOrder {
			a := RunOne(sp, setups[sn], RunOptions{NumUops: 5000})
			b := RunOne(sp, setups[sn], RunOptions{NumUops: 5000})
			if a.Err != nil || b.Err != nil {
				t.Fatalf("%s/%s: %v %v", wn, sn, a.Err, b.Err)
			}
			if a.Metrics.Cycles != b.Metrics.Cycles || a.Metrics.Copies != b.Metrics.Copies {
				t.Errorf("%s/%s: nondeterministic (%d,%d) vs (%d,%d)", wn, sn,
					a.Metrics.Cycles, a.Metrics.Copies, b.Metrics.Cycles, b.Metrics.Copies)
			}
			entries = append(entries, goldenEntry{wn, sn, a.Metrics.Cycles, a.Metrics.Copies})
			if goldenPrint {
				t.Logf(`{"%s", "%s", %d, %d},`, wn, sn, a.Metrics.Cycles, a.Metrics.Copies)
			}
		}
	}

	// Second pass: exact equality against the recorded table.
	byKey := map[string]goldenEntry{}
	for _, e := range entries {
		byKey[e.workload+"/"+e.setup] = e
	}
	for _, want := range goldenExpect {
		got, ok := byKey[want.workload+"/"+want.setup]
		if !ok {
			t.Errorf("%s/%s: missing from run", want.workload, want.setup)
			continue
		}
		if got.cycles != want.cycles || got.copies != want.copies {
			t.Errorf("%s/%s: (%d cycles, %d copies), golden (%d, %d) — machine model drifted",
				want.workload, want.setup, got.cycles, got.copies, want.cycles, want.copies)
		}
	}

	// Third pass: coarse sanity bounds that must survive intentional model
	// tuning (these outlive table re-records).
	if byKey["crafty/one-cluster"].cycles <= byKey["crafty/OP"].cycles {
		t.Error("one-cluster must be slower than OP on crafty")
	}
	if byKey["crafty/one-cluster"].copies != 0 {
		t.Error("one-cluster must produce zero copies")
	}
	if byKey["swim/VC"].copies <= byKey["swim/OP"].copies {
		t.Error("VC must generate more copies than OP on swim")
	}
	if byKey["mcf/OP"].cycles < byKey["crafty/OP"].cycles {
		t.Error("memory-bound mcf must be slower than crafty at equal uops")
	}
}
