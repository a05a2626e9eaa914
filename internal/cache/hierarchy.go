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
	// of hardware); Table 2 uses 4 (DefaultHierarchyConfig). Zero
	// disables prefetching; a negative degree is an error.
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
	cfg HierarchyConfig
	l1  *Cache
	l2  *Cache
	// mshrs holds the outstanding demand fills ordered by completion
	// cycle, so expiry drops a prefix and the next fill is the first entry
	// past the current cycle.
	mshrs []mshr
	// prefetches tracks prefetched lines by completion cycle (separate
	// from demand MSHRs so prefetching never starves demand misses), and
	// pfOrder orders the same records by completion cycle for expiry.
	// pfOrder keeps copies of records since deleted by a demand touch; a
	// copy whose map entry is gone (or differs) is stale and is dropped
	// when it surfaces.
	prefetches map[uint64]int64
	pfOrder    prefetchHeap

	// Counters.
	L1Hits, L2Hits, MemAccesses uint64
	MSHRFullEvents, Prefetches  uint64
}

// NewHierarchy builds the hierarchy. Every access must complete in a
// later cycle than the one that makes it (the core drains each cycle's
// completions before it issues), so hit latencies must be positive.
func NewHierarchy(cfg HierarchyConfig) (*Hierarchy, error) {
	switch {
	case cfg.L1.HitLatency <= 0:
		return nil, fmt.Errorf("cache: L1.HitLatency %d, want at least 1 cycle", cfg.L1.HitLatency)
	case cfg.L2.HitLatency <= 0:
		return nil, fmt.Errorf("cache: L2.HitLatency %d, want at least 1 cycle", cfg.L2.HitLatency)
	case cfg.MemLatency < 0:
		return nil, fmt.Errorf("cache: MemLatency %d, want at least 0 cycles", cfg.MemLatency)
	case cfg.MSHRs < 0:
		return nil, fmt.Errorf("cache: MSHRs %d, want at least 1 (0 means 16)", cfg.MSHRs)
	case cfg.PrefetchDegree < 0:
		return nil, fmt.Errorf("cache: PrefetchDegree %d, want at least 0 (0 disables prefetching)", cfg.PrefetchDegree)
	}
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
	return &Hierarchy{cfg: cfg, l1: l1, l2: l2, prefetches: make(map[uint64]int64)}, nil
}

// prefetchRec is one prefetch record in completion order.
type prefetchRec struct {
	ready int64
	line  uint64
}

// prefetchHeap is a binary min-heap of prefetch records by completion
// cycle (hand-rolled: container/heap boxes every record it moves).
type prefetchHeap []prefetchRec

func (p *prefetchHeap) push(r prefetchRec) {
	*p = append(*p, r)
	q := *p
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if q[parent].ready <= q[i].ready {
			break
		}
		q[parent], q[i] = q[i], q[parent]
		i = parent
	}
}

func (p *prefetchHeap) pop() prefetchRec {
	q := *p
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	*p = q[:last]
	p.down(0)
	return top
}

// down restores the heap order below i.
func (p prefetchHeap) down(i int) {
	for {
		least := i
		if l := 2*i + 1; l < len(p) && p[l].ready < p[least].ready {
			least = l
		}
		if r := 2*i + 2; r < len(p) && p[r].ready < p[least].ready {
			least = r
		}
		if least == i {
			return
		}
		p[i], p[least] = p[least], p[i]
		i = least
	}
}

// live reports whether r is still the map's record for its line.
func (h *Hierarchy) live(r prefetchRec) bool {
	ready, ok := h.prefetches[r.line]
	return ok && ready == r.ready
}

// addPrefetch records a prefetch of line completing at ready. Copies
// left stale by demand touches are compacted away once they outnumber
// the live records by a sweep's worth, so the heap stays proportional
// to the map however rarely a sweep runs.
func (h *Hierarchy) addPrefetch(line uint64, ready int64) {
	h.prefetches[line] = ready
	if len(h.pfOrder) > 2*len(h.prefetches)+prefetchSweepAt {
		keep := h.pfOrder[:0]
		for _, r := range h.pfOrder {
			if h.live(r) {
				keep = append(keep, r)
			}
		}
		for i := len(keep)/2 - 1; i >= 0; i-- {
			keep.down(i)
		}
		h.pfOrder = keep
	}
	h.pfOrder.push(prefetchRec{ready, line})
}

// L1 exposes the first-level cache (for port reservation by the LSQ).
func (h *Hierarchy) L1() *Cache { return h.l1 }

// prefetchSweepAt is the prefetch-table size above which an access sweeps
// completed prefetch records.
const prefetchSweepAt = 64

// expireMSHRs drops completed fills and, while the prefetch table is
// above its sweep threshold, completed prefetch records (their lines
// already sit in the caches). Both pop from the front of their
// completion order; neither walks what is still outstanding.
func (h *Hierarchy) expireMSHRs(cycle int64) {
	done := 0
	for done < len(h.mshrs) && h.mshrs[done].ready <= cycle {
		done++
	}
	if done > 0 {
		h.mshrs = append(h.mshrs[:0], h.mshrs[done:]...)
	}
	if len(h.prefetches) > prefetchSweepAt {
		for len(h.pfOrder) > 0 && h.pfOrder[0].ready <= cycle {
			if r := h.pfOrder.pop(); h.live(r) {
				delete(h.prefetches, r.line)
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
	// Insert in completion order; fills mostly complete in issue order,
	// so the walk back from the tail is short.
	i := len(h.mshrs)
	h.mshrs = append(h.mshrs, mshr{})
	for i > 0 && h.mshrs[i-1].ready > fillReady {
		h.mshrs[i] = h.mshrs[i-1]
		i--
	}
	h.mshrs[i] = mshr{lineAddr: lineAddr, ready: fillReady}
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
		h.addPrefetch(next, cycle+lat)
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
		if m.ready > after {
			next = m.ready
			break
		}
	}
	if len(h.prefetches) > prefetchSweepAt {
		next = h.nextPrefetch(0, after, next)
	}
	return next
}

// nextPrefetch returns the earliest live record in the pfOrder subtree
// rooted at i that completes after `after`, or next if none is earlier.
// A live record past `after` bounds its whole subtree, so the walk visits
// only the records already due (awaiting the next sweep) or stale, and
// their children.
func (h *Hierarchy) nextPrefetch(i int, after, next int64) int64 {
	if i >= len(h.pfOrder) || h.pfOrder[i].ready >= next {
		return next
	}
	if r := h.pfOrder[i]; r.ready > after && h.live(r) {
		return r.ready
	}
	next = h.nextPrefetch(2*i+1, after, next)
	return h.nextPrefetch(2*i+2, after, next)
}

// Reset restores post-construction state (between runs) without
// reallocating: cache contents are zeroed in place, the MSHR backing and
// prefetch map are kept.
func (h *Hierarchy) Reset() {
	h.l1.Reset()
	h.l2.Reset()
	h.mshrs = h.mshrs[:0]
	clear(h.prefetches)
	h.pfOrder = h.pfOrder[:0]
	h.L1Hits, h.L2Hits, h.MemAccesses = 0, 0, 0
	h.MSHRFullEvents, h.Prefetches = 0, 0
}
