package cache

import (
	"strings"
	"testing"
)

// TestTaggedPrefetchHidesStream verifies the tagged stream prefetcher: a
// sequential sweep should, after startup, be served at L1-hit or merged
// latency rather than paying memory latency per line.
func TestTaggedPrefetchHidesStream(t *testing.T) {
	h, err := NewHierarchy(DefaultHierarchyConfig())
	if err != nil {
		t.Fatal(err)
	}
	cycle := int64(0)
	memLevelAccesses := 0
	const lines = 64
	for line := 0; line < lines; line++ {
		for word := 0; word < 8; word++ {
			addr := uint64(0x100000 + line*64 + word*8)
			res, ok := h.Access(cycle, addr, false)
			if !ok {
				cycle += 2
				continue
			}
			if res.Level == 3 {
				memLevelAccesses++
			}
			// Consume slowly enough for the stream to run ahead.
			cycle += 12
		}
	}
	// Only the first access should see memory directly; everything else is
	// covered by in-flight or completed prefetches.
	if memLevelAccesses > 3 {
		t.Errorf("memory-level demand accesses = %d, want ≤ 3 (prefetcher should cover the stream)",
			memLevelAccesses)
	}
	if h.Prefetches == 0 {
		t.Error("no prefetches issued on a sequential stream")
	}
}

func TestPrefetchDisabled(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	cfg.PrefetchDegree = 0
	h, err := NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for line := 0; line < 16; line++ {
		h.Access(int64(line*600), uint64(0x200000+line*64), false)
	}
	if h.Prefetches != 0 {
		t.Errorf("prefetches issued with degree 0: %d", h.Prefetches)
	}
	if h.MemAccesses != 16 {
		t.Errorf("every line of a cold sweep should miss to memory: %d/16", h.MemAccesses)
	}
}

// A negative prefetch degree is an error, not a silent default: the
// hierarchy refuses it, naming the field.
func TestPrefetchNegativeDegreeRejected(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	cfg.PrefetchDegree = -1
	if h, err := NewHierarchy(cfg); err == nil || !strings.Contains(err.Error(), "PrefetchDegree") {
		t.Errorf("degree -1: hierarchy %v, error %v; want an error naming PrefetchDegree", h != nil, err)
	}
	if DefaultHierarchyConfig().PrefetchDegree != 4 {
		t.Error("Table 2 prefetch degree is 4")
	}
}

func TestPrefetchDoesNotConsumeDemandMSHRs(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	cfg.MSHRs = 2
	cfg.PrefetchDegree = 4
	h, err := NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Two demand misses fill the MSHRs; their prefetches must not make the
	// THIRD demand miss be refused for longer than the two demand fills.
	h.Access(0, 0x300000, false)
	h.Access(0, 0x310000, false)
	if _, ok := h.Access(0, 0x320000, false); ok {
		t.Fatal("third demand miss should be refused with 2 MSHRs")
	}
	// After the demand fills complete, capacity is back even though
	// prefetches were launched.
	if _, ok := h.Access(2000, 0x320000, false); !ok {
		t.Error("demand miss refused after MSHRs drained; prefetches leak MSHRs")
	}
}

func TestPrefetchedLineCountsAsDemandHitLater(t *testing.T) {
	h, _ := NewHierarchy(DefaultHierarchyConfig())
	res1, _ := h.Access(0, 0x400000, false) // miss; prefetches 0x400040...
	// Access the prefetched next line long after its fill completed.
	late := res1.Ready + 1000
	res2, ok := h.Access(late, 0x400040, false)
	if !ok {
		t.Fatal("access refused")
	}
	if res2.Level != 1 {
		t.Errorf("completed prefetch should serve as L1 hit, got level %d", res2.Level)
	}
	if got := res2.Ready - late; got != 3 {
		t.Errorf("latency = %d, want 3 (L1 hit)", got)
	}
}
