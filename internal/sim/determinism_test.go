package sim

import (
	"bytes"
	"context"
	"testing"

	"clustersim/internal/engine"
	"clustersim/internal/workload"
)

// determinismSetups is every steering configuration the reports exercise:
// the paper's schemes plus the hardware-heuristic extras of the policy
// survey. A new policy should be added here so the byte-identity contract
// covers it.
func determinismSetups() []Setup {
	return []Setup{
		SetupOP(2),
		SetupOPNoStall(2),
		SetupOneCluster(2),
		SetupOB(2),
		SetupRHOP(2),
		SetupVC(2, 2),
		SetupVC(2, 4),
		SetupVCComm(2, 2),
		SetupVCChain(2, 2, 4),
		SetupKind("ADV", 2),
		SetupKind("LC", 2),
		SetupKind("SLC", 2),
		SetupKind("MOD", 2),
	}
}

// TestPolicyDeterminismSuite runs every steering policy on reduced-suite
// points through two independent engines and requires byte-identical
// Result encodings and identical result content keys. This is the
// contract the hot-loop rewrite (windowed state, event wheel) must not
// disturb: identical wire bytes means identical reports, and identical
// keys means a warm content-addressed store still answers every job.
func TestPolicyDeterminismSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-policy suite sweep")
	}
	sps := []*workload.Simpoint{workload.ByName("crafty"), workload.ByName("swim"), workload.ByName("mcf")}
	opts := RunOptions{NumUops: 3000}

	for _, setup := range determinismSetups() {
		setup := setup
		t.Run(setup.Label, func(t *testing.T) {
			t.Parallel()
			engA := engine.New(engine.Options{Parallelism: 1})
			engB := engine.New(engine.Options{Parallelism: 1})
			for _, sp := range sps {
				job := engine.Job{Simpoint: sp, Setup: setup, Opts: opts}
				a := engA.Run(context.Background(), job)
				b := engB.Run(context.Background(), job)
				if a.Err != nil || b.Err != nil {
					t.Fatalf("%s: %v %v", sp.Name, a.Err, b.Err)
				}
				encA, errA := engine.EncodeResult(a)
				encB, errB := engine.EncodeResult(b)
				if errA != nil || errB != nil {
					t.Fatalf("%s: encoding: %v %v", sp.Name, errA, errB)
				}
				if !bytes.Equal(encA, encB) {
					t.Errorf("%s: result encodings differ across engines (nondeterministic simulation)", sp.Name)
				}
				keyA, okA := engA.ResultKey(job)
				keyB, okB := engB.ResultKey(job)
				if okA != okB || keyA != keyB {
					t.Errorf("%s: result keys differ: %q(%v) vs %q(%v)", sp.Name, keyA, okA, keyB, okB)
				}
			}
		})
	}
}

// TestPooledCoreByteIdentity is the core-pooling contract at system level:
// one engine running the full policy suite — its cores flowing through the
// per-shape pool, reset between jobs — must produce byte-identical Result
// encodings to engine.Execute, the pristine fresh-core-per-job reference.
// Every setup here shares one config shape, so beyond the first job the
// engine runs almost entirely on reused cores.
func TestPooledCoreByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-policy suite sweep")
	}
	sps := []*workload.Simpoint{workload.ByName("crafty"), workload.ByName("swim"), workload.ByName("mcf")}
	opts := RunOptions{NumUops: 3000}
	eng := engine.New(engine.Options{Parallelism: 2})

	for _, setup := range determinismSetups() {
		for _, sp := range sps {
			job := engine.Job{Simpoint: sp, Setup: setup, Opts: opts}
			got := eng.Run(context.Background(), job)
			want := engine.Execute(context.Background(), job)
			if got.Err != nil || want.Err != nil {
				t.Fatalf("%s/%s: %v %v", setup.Label, sp.Name, got.Err, want.Err)
			}
			encGot, errG := engine.EncodeResult(got)
			encWant, errW := engine.EncodeResult(want)
			if errG != nil || errW != nil {
				t.Fatalf("%s/%s: encoding: %v %v", setup.Label, sp.Name, errG, errW)
			}
			if !bytes.Equal(encGot, encWant) {
				t.Errorf("%s/%s: pooled-core result differs from fresh-core reference", setup.Label, sp.Name)
			}
		}
	}
	st := eng.Stats()
	if st.CorePoolHits == 0 {
		t.Error("suite ran without a single core-pool hit: pooling inactive")
	}
	if st.CorePoolHits+st.CorePoolMisses != st.Simulations {
		t.Errorf("pool accounting: hits %d + misses %d != simulations %d",
			st.CorePoolHits, st.CorePoolMisses, st.Simulations)
	}
}

// TestPooledCoreByteIdentityOverriddenMachines extends the pooling
// contract to the ablations' machines: the jobs move through more machine
// shapes than the pool holds cores, so cores are reused within a shape and
// evicted across shapes, and every result must still encode
// byte-identically to a fresh core's.
func TestPooledCoreByteIdentityOverriddenMachines(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-machine sweep")
	}
	sps := []*workload.Simpoint{workload.ByName("crafty"), workload.ByName("swim")}
	machines := []engine.MachineSpec{
		{LinkLatency: 4},
		{IQ: 24},
		{Topology: "ring"},
		{CopyIssue: 2, LinkBandwidth: 2},
		{PrefetchDegree: engine.PrefetchOff},
		{PrefetchDegree: 8},
	}
	eng := engine.New(engine.Options{Parallelism: 2})
	for _, m := range machines {
		for _, setup := range []Setup{SetupOP(2), SetupVC(2, 2), SetupOB(4), SetupVC(2, 4)} {
			for _, sp := range sps {
				job := engine.Job{Simpoint: sp, Setup: setup, Opts: RunOptions{NumUops: 3000, Machine: m}}
				got := eng.Run(context.Background(), job)
				want := engine.Execute(context.Background(), job)
				if got.Err != nil || want.Err != nil {
					t.Fatalf("%s/%s %+v: %v %v", setup.Label, sp.Name, m, got.Err, want.Err)
				}
				encGot, errG := engine.EncodeResult(got)
				encWant, errW := engine.EncodeResult(want)
				if errG != nil || errW != nil {
					t.Fatalf("%s/%s %+v: encoding: %v %v", setup.Label, sp.Name, m, errG, errW)
				}
				if !bytes.Equal(encGot, encWant) {
					t.Errorf("%s/%s %+v: pooled-core result differs from fresh-core reference", setup.Label, sp.Name, m)
				}
			}
		}
	}
	if st := eng.Stats(); st.CorePoolHits == 0 {
		t.Error("sweep ran without a single core-pool hit: pooling inactive")
	}
}

// TestResultKeysStableAcrossRewrite pins the exact result content keys of
// every setup the reports run: the determinism suite's, the scoped and
// chain forms of the ablations, the 4-cluster machine's, and one run on an
// overridden machine. A key change silently orphans every blob in
// existing content-addressed stores (all cached results re-simulate), so
// it must be a deliberate decision, not a side effect.
func TestResultKeysStableAcrossRewrite(t *testing.T) {
	const crafty = "result|v2|crafty|s2698591577689284590|h66f41a72d268c871|"
	cases := []struct {
		setup Setup
		want  string
	}{
		{SetupOP(2), crafty + "OP|p|c2|u3000|w0|t"},
		{SetupOPNoStall(2), crafty + "OP-nostall|p|c2|u3000|w0|t"},
		{SetupOneCluster(2), crafty + "one-cluster|p|c2|u3000|w0|t"},
		{SetupOB(2), crafty + "OB|pOB/2/0/0|c2|u3000|w0|t"},
		{SetupRHOP(2), crafty + "RHOP|pRHOP/2/0/0|c2|u3000|w0|t"},
		{SetupVC(2, 2), crafty + "VC|pVC/2/0/0|c2|u3000|w0|t"},
		{SetupVC(2, 4), crafty + "VC(2->4)|pVC/2/0/0|c4|u3000|w0|t"},
		{SetupVCComm(2, 2), crafty + "VC-comm|pVC/2/0/0|c2|u3000|w0|t"},
		{SetupVCChain(2, 2, 4), crafty + "VC/chain4|pVC/2/0/4|c2|u3000|w0|t"},
		{SetupKind("ADV", 2), crafty + "ADV|p|c2|u3000|w0|t"},
		{SetupKind("LC", 2), crafty + "LC|p|c2|u3000|w0|t"},
		{SetupKind("SLC", 2), crafty + "SLC|p|c2|u3000|w0|t"},
		{SetupKind("MOD", 2), crafty + "MOD|p|c2|u3000|w0|t"},
		{SetupScoped("VC", 2, 16), crafty + "VC/region16|pVC/2/16/0|c2|u3000|w0|t"},
		{SetupScoped("OB", 2, 48), crafty + "OB/region48|pOB/2/48/0|c2|u3000|w0|t"},
		{SetupScoped("RHOP", 2, 256), crafty + "RHOP/region256|pRHOP/2/256/0|c2|u3000|w0|t"},
		{SetupVCChain(2, 2, 64), crafty + "VC/chain64|pVC/2/0/64|c2|u3000|w0|t"},
		{SetupVC(3, 4), crafty + "VC(3->4)|pVC/3/0/0|c4|u3000|w0|t"},
		{SetupVC(4, 4), crafty + "VC|pVC/4/0/0|c4|u3000|w0|t"},
		{SetupVC(8, 4), crafty + "VC(8->4)|pVC/8/0/0|c4|u3000|w0|t"},
		{SetupOP(4), crafty + "OP|p|c4|u3000|w0|t"},
		{SetupOB(4), crafty + "OB|pOB/4/0/0|c4|u3000|w0|t"},
		{SetupRHOP(4), crafty + "RHOP|pRHOP/4/0/0|c4|u3000|w0|t"},
		{SetupVCComm(2, 4), crafty + "VC-comm(2->4)|pVC/2/0/0|c4|u3000|w0|t"},
		{SetupOneCluster(4), crafty + "one-cluster|p|c4|u3000|w0|t"},
	}
	eng := engine.New(engine.Options{})
	for _, tc := range cases {
		job := engine.Job{Simpoint: workload.ByName("crafty"), Setup: tc.setup, Opts: RunOptions{NumUops: 3000}}
		key, ok := eng.ResultKey(job)
		if !ok {
			t.Fatalf("%s: job unexpectedly uncacheable", tc.setup.Label)
		}
		if key != tc.want {
			t.Errorf("%s: result key drifted:\n got %q\nwant %q", tc.setup.Label, key, tc.want)
		}
	}
	slow := engine.Job{Simpoint: workload.ByName("swim"), Setup: SetupVC(2, 2), Opts: RunOptions{
		NumUops: 3000, WarmupUops: 500, Machine: engine.MachineSpec{LinkLatency: 4}}}
	want := "result|v2|swim|s8753259172190019931|hd7dc3eeb24659f8e|VC|pVC/2/0/0|c2|u3000|w500|t|mlink_latency=4"
	if key, ok := eng.ResultKey(slow); !ok || key != want {
		t.Errorf("latency-4 VC: result key drifted:\n got %q (%v)\nwant %q", key, ok, want)
	}
}
