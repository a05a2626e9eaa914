package experiments

import (
	"testing"

	"clustersim/internal/engine"
	"clustersim/internal/store"
)

// Running the same experiment twice against a shared cache directory must
// produce a byte-identical report, with the second run served almost
// entirely (>= 90%) from the persistent result store — the repo's
// persistence acceptance bar.
func TestExperimentRepeatServedFromDiskStore(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment repeat; skipped in -short")
	}
	dir := t.TempDir()
	run := func() (string, engine.CacheStats) {
		disk, err := store.OpenDisk(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		// A fresh engine per run stands in for a fresh process: nothing
		// survives in memory, only the disk store.
		eng := engine.New(engine.Options{ResultStore: disk})
		r, err := Fig5(Options{NumUops: 6000, Quick: true, Runner: eng})
		if err != nil {
			t.Fatal(err)
		}
		return r.Render(), eng.Stats()
	}

	report1, st1 := run()
	if st1.Simulations == 0 || st1.StoreHits != 0 {
		t.Fatalf("first run: %+v", st1)
	}
	report2, st2 := run()
	if report1 != report2 {
		t.Error("repeated run's report is not byte-identical")
	}
	lookups := st2.StoreHits + st2.StoreMisses
	if lookups == 0 || float64(st2.StoreHits) < 0.9*float64(lookups) {
		t.Errorf("second run: %d/%d whole-result lookups served by the store, below 90%%", st2.StoreHits, lookups)
	}
	if st2.Simulations != 0 {
		t.Errorf("second run still simulated %d jobs", st2.Simulations)
	}
}
