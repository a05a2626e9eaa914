package cache

import (
	"fmt"
	"math"
)

// HierarchyConfig assembles the two-level hierarchy of the paper's Table 2:
// L1D 32KB/4-way/3-cycle with 2R+1W ports, unified L2 2MB/16-way/13-cycle,
// memory ≥500 cycles, and a bounded miss-status-holding-register file.
type HierarchyConfig struct {
	L1, L2     Config
	MemLatency int
	// MSHRs bounds outstanding L1 misses; zero means 16.
	MSHRs int
	// PrefetchDegree is the number of sequential next lines fetched on a
	// demand miss (a simple stream prefetcher, standard on the paper's era
	// of hardware). Zero disables prefetching; negative means default (2).
	PrefetchDegree int
}

// DefaultHierarchyConfig returns the paper's Table 2 memory parameters.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		L1: Config{
			SizeBytes: 32 << 10, LineBytes: 64, Assoc: 4,
			HitLatency: 3, ReadPorts: 2, WritePorts: 1,
		},
		L2: Config{
			SizeBytes: 2 << 20, LineBytes: 64, Assoc: 16,
			HitLatency: 13,
		},
		MemLatency:     500,
		MSHRs:          16,
		PrefetchDegree: 4,
	}
}

// mshr tracks one outstanding line fill.
type mshr struct {
	lineAddr uint64
	ready    int64 // cycle at which the fill completes
}

// AccessResult reports one hierarchy access.
type AccessResult struct {
	// Ready is the cycle the data is available.
	Ready int64
	// Level is 1 (L1 hit), 2 (L2 hit) or 3 (memory).
	Level int
	// Merged reports the access coalesced onto an in-flight MSHR.
	Merged bool
}

// Hierarchy is the shared data-cache hierarchy. It is accessed by all
// clusters through the unified LSQ, per the paper's design.
type Hierarchy struct {
	cfg   HierarchyConfig
	l1    *Cache
	l2    *Cache
	mshrs []mshr
	// prefetches tracks in-flight prefetched lines (separate from demand
	// MSHRs so prefetching never starves demand misses).
	prefetches map[uint64]int64

	// Counters.
	L1Hits, L2Hits, MemAccesses uint64
	MSHRFullEvents, Prefetches  uint64
}

// NewHierarchy builds the hierarchy.
func NewHierarchy(cfg HierarchyConfig) (*Hierarchy, error) {
	if cfg.MSHRs == 0 {
		cfg.MSHRs = 16
	}
	l1, err := New(cfg.L1)
	if err != nil {
		return nil, fmt.Errorf("L1: %w", err)
	}
	l2, err := New(cfg.L2)
	if err != nil {
		return nil, fmt.Errorf("L2: %w", err)
	}
	if cfg.PrefetchDegree < 0 {
		cfg.PrefetchDegree = 2
	}
	return &Hierarchy{cfg: cfg, l1: l1, l2: l2, prefetches: make(map[uint64]int64)}, nil
}

// L1 exposes the first-level cache (for port reservation by the LSQ).
func (h *Hierarchy) L1() *Cache { return h.l1 }

// prefetchSweepAt is the prefetch-table size above which an access sweeps
// completed prefetch records.
const prefetchSweepAt = 64

// expireMSHRs drops completed fills and completed prefetch records (their
// lines already sit in the caches).
func (h *Hierarchy) expireMSHRs(cycle int64) {
	out := h.mshrs[:0]
	for _, m := range h.mshrs {
		if m.ready > cycle {
			out = append(out, m)
		}
	}
	h.mshrs = out
	if len(h.prefetches) > prefetchSweepAt {
		for line, ready := range h.prefetches {
			if ready <= cycle {
				delete(h.prefetches, line)
			}
		}
	}
}

// Access performs a load or store probe at the given cycle and returns when
// the data will be ready, or ok=false if the access must retry (MSHR file
// full). Fills are performed eagerly (contents updated now, timing via the
// returned Ready cycle), a standard trace-simulator simplification.
func (h *Hierarchy) Access(cycle int64, addr uint64, write bool) (AccessResult, bool) {
	h.expireMSHRs(cycle)
	lineAddr := h.l1.LineAddr(addr)

	// Coalesce with an in-flight fill first: the line is not yet in L1.
	for _, m := range h.mshrs {
		if m.lineAddr == lineAddr {
			return AccessResult{Ready: m.ready + int64(h.cfg.L1.HitLatency), Level: 2, Merged: true}, true
		}
	}
	// A completed prefetch behaves as an L1 hit; an in-flight one as a
	// merged miss. Either way the first demand touch of a prefetched line
	// re-arms the stream (tagged prefetching), keeping sequential streams
	// running ahead of the consumer.
	if pf, ok := h.prefetches[lineAddr]; ok {
		h.prefetchAfter(cycle, lineAddr)
		if pf <= cycle {
			delete(h.prefetches, lineAddr)
		} else {
			return AccessResult{Ready: pf + int64(h.cfg.L1.HitLatency), Level: 2, Merged: true}, true
		}
	}
	if h.l1.Lookup(addr) {
		h.L1Hits++
		return AccessResult{Ready: cycle + int64(h.cfg.L1.HitLatency), Level: 1}, true
	}
	// L1 miss: need an MSHR.
	if len(h.mshrs) >= h.cfg.MSHRs {
		h.MSHRFullEvents++
		return AccessResult{}, false
	}
	fillReady, level := h.fill(cycle, addr)
	h.mshrs = append(h.mshrs, mshr{lineAddr: lineAddr, ready: fillReady})
	h.prefetchAfter(cycle, lineAddr)
	return AccessResult{Ready: fillReady, Level: level}, true
}

// fill brings the line into L1 (and L2 on an L2 miss) and returns the fill
// completion cycle and the serving level.
func (h *Hierarchy) fill(cycle int64, addr uint64) (int64, int) {
	if h.l2.Lookup(addr) {
		h.L2Hits++
		h.l1.Fill(addr)
		return cycle + int64(h.cfg.L2.HitLatency), 2
	}
	h.MemAccesses++
	h.l2.Fill(addr)
	h.l1.Fill(addr)
	return cycle + int64(h.cfg.L2.HitLatency) + int64(h.cfg.MemLatency), 3
}

// prefetchAfter launches the sequential next-line prefetches that follow a
// demand miss. Prefetches use their own tracking (not demand MSHRs, so
// they never starve demand misses) and fill without touching demand
// hit/miss statistics.
func (h *Hierarchy) prefetchAfter(cycle int64, lineAddr uint64) {
	lineBytes := uint64(h.cfg.L1.LineBytes)
	for d := 1; d <= h.cfg.PrefetchDegree; d++ {
		next := lineAddr + uint64(d)*lineBytes
		if _, inflight := h.prefetches[next]; inflight {
			continue
		}
		already := false
		for _, m := range h.mshrs {
			if m.lineAddr == next {
				already = true
				break
			}
		}
		if already || h.l1.Contains(next) {
			continue
		}
		lat := int64(h.cfg.L2.HitLatency)
		if !h.l2.Contains(next) {
			lat += int64(h.cfg.MemLatency)
			h.l2.Fill(next)
		}
		h.l1.Fill(next)
		h.prefetches[next] = cycle + lat
		h.Prefetches++
	}
}

// NextFill returns the first cycle after `after` at which the passage of
// time alone changes what an access sees: the next demand fill to
// complete (its MSHR frees up), and, while the prefetch table is above its
// sweep threshold, the next prefetch to complete (an access then deletes
// its record). Fills already due at `after` are ignored: they expire
// lazily at the next access, whichever cycle that is. It returns
// math.MaxInt64 when nothing is outstanding. The core uses it to bound how
// far it may fast-forward a machine that is only retrying accesses.
func (h *Hierarchy) NextFill(after int64) int64 {
	next := int64(math.MaxInt64)
	for _, m := range h.mshrs {
		if m.ready > after && m.ready < next {
			next = m.ready
		}
	}
	if len(h.prefetches) > prefetchSweepAt {
		for _, ready := range h.prefetches {
			if ready > after && ready < next {
				next = ready
			}
		}
	}
	return next
}

// OutstandingMisses returns the live MSHR count (after expiry at cycle).
func (h *Hierarchy) OutstandingMisses(cycle int64) int {
	h.expireMSHRs(cycle)
	return len(h.mshrs)
}

// Reset restores post-construction state (between runs) without
// reallocating: cache contents are zeroed in place, the MSHR backing and
// prefetch map are kept.
func (h *Hierarchy) Reset() {
	h.l1.Reset()
	h.l2.Reset()
	h.mshrs = h.mshrs[:0]
	clear(h.prefetches)
	h.L1Hits, h.L2Hits, h.MemAccesses = 0, 0, 0
	h.MSHRFullEvents, h.Prefetches = 0, 0
}
