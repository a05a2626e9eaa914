package cache

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func smallCache() *Cache {
	return MustNew(Config{SizeBytes: 1024, LineBytes: 64, Assoc: 2, HitLatency: 1})
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{SizeBytes: 0, LineBytes: 64, Assoc: 2},
		{SizeBytes: 1024, LineBytes: 60, Assoc: 2},  // non-power-of-two line
		{SizeBytes: 1000, LineBytes: 64, Assoc: 2},  // non-power-of-two sets
		{SizeBytes: 1024, LineBytes: 64, Assoc: -1}, // negative assoc
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: expected validation error for %+v", i, cfg)
		}
	}
	good := Config{SizeBytes: 32 << 10, LineBytes: 64, Assoc: 4, HitLatency: 3}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestMissThenHit(t *testing.T) {
	c := smallCache()
	if c.Lookup(0x1000) {
		t.Fatal("cold cache hit")
	}
	c.Fill(0x1000)
	if !c.Lookup(0x1000) {
		t.Fatal("miss after fill")
	}
	if !c.Lookup(0x1008) {
		t.Fatal("same line, different offset should hit")
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 2 hits / 1 miss", st)
	}
}

func TestLRUEviction(t *testing.T) {
	// 2-way cache, 8 sets of 64B lines: addresses 0, 512, 1024 map to set 0.
	c := smallCache()
	c.Fill(0)
	c.Fill(512)
	c.Lookup(0) // touch 0: 512 becomes LRU
	c.Fill(1024)
	if !c.Lookup(0) {
		t.Error("MRU line 0 was evicted")
	}
	if c.Lookup(512) {
		t.Error("LRU line 512 survived eviction")
	}
}

func TestFillIdempotentOnPresentLine(t *testing.T) {
	c := smallCache()
	c.Fill(0)
	if evicted := c.Fill(0); evicted {
		t.Error("refilling a present line must not evict")
	}
}

func TestPortReservation(t *testing.T) {
	c := MustNew(Config{SizeBytes: 1024, LineBytes: 64, Assoc: 2, HitLatency: 1, ReadPorts: 2, WritePorts: 1})
	if !c.ReservePort(10, false) || !c.ReservePort(10, false) {
		t.Fatal("two read ports should be available")
	}
	if c.ReservePort(10, false) {
		t.Fatal("third read same cycle should fail")
	}
	if !c.ReservePort(10, true) {
		t.Fatal("write port should be available")
	}
	if c.ReservePort(10, true) {
		t.Fatal("second write same cycle should fail")
	}
	// Next cycle: ports reset.
	if !c.ReservePort(11, false) {
		t.Fatal("read port should reset next cycle")
	}
}

func TestUnlimitedPorts(t *testing.T) {
	c := smallCache()
	for i := 0; i < 100; i++ {
		if !c.ReservePort(5, i%2 == 0) {
			t.Fatal("unlimited ports should never refuse")
		}
	}
}

// Property: hits + misses == lookups, for random address streams.
func TestStatsBalanceProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw) + 1
		rng := rand.New(rand.NewSource(seed))
		c := smallCache()
		for i := 0; i < n; i++ {
			addr := uint64(rng.Intn(4096))
			if !c.Lookup(addr) {
				c.Fill(addr)
			}
		}
		return c.Stats().Accesses() == uint64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: a working set that fits in the cache never misses after warmup.
func TestNoCapacityMissWhenFitsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := smallCache() // 1KB: 16 lines
		// Warm 8 distinct lines in one half of the sets.
		lines := make([]uint64, 8)
		for i := range lines {
			lines[i] = uint64(i) * 64
			c.Fill(lines[i])
		}
		for i := 0; i < 200; i++ {
			if !c.Lookup(lines[rng.Intn(len(lines))]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestHierarchyLevels(t *testing.T) {
	h, err := NewHierarchy(DefaultHierarchyConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Cold access: memory.
	res, ok := h.Access(0, 0x4000, false)
	if !ok {
		t.Fatal("access refused on empty MSHR file")
	}
	if res.Level != 3 {
		t.Errorf("cold access level = %d, want 3 (memory)", res.Level)
	}
	if res.Ready < 500 {
		t.Errorf("memory access ready at %d, want ≥ 500", res.Ready)
	}
	// After the fill completes, same line is an L1 hit.
	res2, _ := h.Access(res.Ready+1, 0x4000, false)
	if res2.Level != 1 {
		t.Errorf("post-fill access level = %d, want 1", res2.Level)
	}
	if got := res2.Ready - (res.Ready + 1); got != 3 {
		t.Errorf("L1 hit latency = %d, want 3", got)
	}
}

func TestHierarchyMSHRMerge(t *testing.T) {
	h, _ := NewHierarchy(DefaultHierarchyConfig())
	first, _ := h.Access(0, 0x8000, false)
	second, ok := h.Access(1, 0x8008, false) // same line
	if !ok {
		t.Fatal("merge refused")
	}
	if !second.Merged {
		t.Error("same-line access should merge onto the in-flight MSHR")
	}
	if second.Ready < first.Ready {
		t.Error("merged access cannot be ready before the fill")
	}
}

func TestHierarchyMSHRFull(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	cfg.MSHRs = 2
	h, _ := NewHierarchy(cfg)
	h.Access(0, 0x10000, false)
	h.Access(0, 0x20000, false)
	if _, ok := h.Access(0, 0x30000, false); ok {
		t.Fatal("third concurrent miss should be refused with 2 MSHRs")
	}
	if h.MSHRFullEvents != 1 {
		t.Errorf("MSHRFullEvents = %d, want 1", h.MSHRFullEvents)
	}
	// After the fills complete, misses are accepted again.
	if _, ok := h.Access(2000, 0x30000, false); !ok {
		t.Fatal("miss refused after MSHRs drained")
	}
}

func TestHierarchyL2Hit(t *testing.T) {
	h, _ := NewHierarchy(DefaultHierarchyConfig())
	res, _ := h.Access(0, 0x40000, false)
	// Evict the line from tiny... L1 is 32KB/4-way: fill 5 conflicting lines.
	// Conflict set stride = sets*lineBytes = 128*64 = 8KB.
	for i := 1; i <= 4; i++ {
		h.Access(res.Ready+int64(i), 0x40000+uint64(i)*8192, false)
	}
	far := res.Ready + 600
	res2, _ := h.Access(far, 0x40000, false)
	if res2.Level != 2 {
		t.Errorf("level = %d, want 2 (L2 hit after L1 eviction)", res2.Level)
	}
	if got := res2.Ready - far; got != 13 {
		t.Errorf("L2 hit latency = %d, want 13", got)
	}
}

func TestHierarchyNextFill(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	cfg.PrefetchDegree = 0
	h, _ := NewHierarchy(cfg)
	if got := h.NextFill(0); got != math.MaxInt64 {
		t.Fatalf("idle hierarchy NextFill = %d, want MaxInt64", got)
	}
	a, _ := h.Access(0, 0x10000, false)  // memory miss, fill at 513
	b, _ := h.Access(10, 0x20000, false) // fill at 523
	if got := h.NextFill(0); got != a.Ready {
		t.Errorf("NextFill(0) = %d, want first fill %d", got, a.Ready)
	}
	// The first fill is due but nothing has accessed the hierarchy since,
	// so its MSHR has not expired yet: NextFill must look past it, or a
	// caller waiting for the next change would never advance.
	if got := h.NextFill(a.Ready); got != b.Ready {
		t.Errorf("NextFill at a due-but-unexpired fill = %d, want %d", got, b.Ready)
	}
	if got := h.NextFill(b.Ready); got != math.MaxInt64 {
		t.Errorf("NextFill after every fill = %d, want MaxInt64", got)
	}
}

func TestHierarchyNextFillSeesPrefetchesAboveSweepThreshold(t *testing.T) {
	h, _ := NewHierarchy(DefaultHierarchyConfig())
	h.mshrs = append(h.mshrs, mshr{lineAddr: 0x1000, ready: 600})
	h.addPrefetch(0x2000, 550)
	for i := 1; i < prefetchSweepAt; i++ {
		h.addPrefetch(0x2000+uint64(i)*64, 900)
	}
	// At the threshold no access sweeps prefetch records, so their
	// completion is invisible: only the demand fill counts.
	if got := h.NextFill(500); got != 600 {
		t.Errorf("NextFill at the sweep threshold = %d, want the demand fill 600", got)
	}
	// One more record and every access sweeps completed prefetches, so the
	// 550 completion becomes a change an access can see.
	h.addPrefetch(0x9000, 900)
	if got := h.NextFill(500); got != 550 {
		t.Errorf("NextFill above the sweep threshold = %d, want the prefetch at 550", got)
	}
	// Past a due record nobody swept yet, it scans for the next one.
	h.addPrefetch(0xa000, 700)
	if got := h.NextFill(550); got != 600 {
		t.Errorf("NextFill past a due prefetch = %d, want the demand fill 600", got)
	}
	if got := h.NextFill(600); got != 700 {
		t.Errorf("NextFill past every demand fill = %d, want the prefetch at 700", got)
	}
}
