package cache

import (
	"math"
	"math/rand"
	"testing"
)

// This file keeps the original linear-scan LSQ disambiguation and the
// map-walking hierarchy as references, and drives seeded random
// operation sequences through both them and the production structures:
// the cursor, the known-store counts, the ordered MSHR file and the
// prefetch heap are exact only if every status, ready cycle and counter
// agrees.

// refLSQ is the reference load/store queue: a plain slice in program
// order, disambiguated by a full scan of the older entries.
type refLSQ struct {
	ents        []lsqEntry
	ForwardHits uint64
}

func (q *refLSQ) find(seq int64) *lsqEntry {
	for i := range q.ents {
		if q.ents[i].seq == seq {
			return &q.ents[i]
		}
	}
	return nil
}

func (q *refLSQ) ProbeLoad(seq int64, addr uint64) LoadStatus {
	var match *lsqEntry
	for i := range q.ents {
		e := &q.ents[i]
		if e.seq >= seq {
			break
		}
		if !e.isStore {
			continue
		}
		if !e.addrKnown {
			return LoadBlocked
		}
		if e.addr == addr {
			match = e
		}
	}
	if match == nil {
		return LoadAccess
	}
	if match.dataReady {
		q.ForwardHits++
		return LoadForward
	}
	return LoadWaitData
}

func TestLSQMatchesLinearReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := []int{1, 3, 16, 256}[seed%4]
		q, ref := NewLSQ(capacity), &refLSQ{}
		// A few hot addresses make same-address stores common; the wide
		// draws exercise the empty-bucket fast path.
		addrOf := func() uint64 {
			if rng.Intn(4) == 0 {
				return rng.Uint64()
			}
			return 0x1000 + uint64(rng.Intn(6))*8
		}
		var next int64
		probes := 0
		for step := 0; step < 20_000; step++ {
			if step%5000 == 0 && rng.Intn(2) == 0 {
				q.Reset()
				*ref = refLSQ{}
			}
			n := len(ref.ents)
			switch op := rng.Intn(10); {
			case op < 3:
				isStore := rng.Intn(2) == 0
				next += 1 + int64(rng.Intn(3))
				if q.Allocate(next, isStore) != (n < capacity) {
					t.Fatalf("seed %d step %d: Allocate disagreed on capacity", seed, step)
				}
				if n < capacity {
					ref.ents = append(ref.ents, lsqEntry{seq: next, isStore: isStore})
				}
			case op < 5 && n > 0:
				// Mostly first-time addresses, sometimes a re-set.
				e := &ref.ents[rng.Intn(n)]
				if !e.addrKnown || rng.Intn(8) == 0 {
					a := addrOf()
					q.SetAddress(e.seq, a)
					e.addr, e.addrKnown = a, true
				}
			case op < 6 && n > 0:
				if e := &ref.ents[rng.Intn(n)]; e.isStore {
					q.SetStoreData(e.seq)
					e.dataReady = true
				}
			case op < 7 && n > 0:
				q.Release(ref.ents[0].seq)
				ref.ents = append(ref.ents[:0], ref.ents[1:]...)
			case n > 0:
				// Probe a live entry's seq (or one past the tail) at
				// either a hot address or its own.
				seq := next + 1
				if rng.Intn(8) != 0 {
					seq = ref.ents[rng.Intn(n)].seq
				}
				addr := addrOf()
				if e := ref.find(seq); e != nil && e.addrKnown && rng.Intn(2) == 0 {
					addr = e.addr
				}
				got, want := q.ProbeLoad(seq, addr), ref.ProbeLoad(seq, addr)
				if got != want {
					t.Fatalf("seed %d step %d: ProbeLoad(%d, %#x) = %v, reference %v", seed, step, seq, addr, got, want)
				}
				probes++
			}
			if q.Len() != len(ref.ents) || q.ForwardHits != ref.ForwardHits {
				t.Fatalf("seed %d step %d: len %d fwd %d, reference len %d fwd %d",
					seed, step, q.Len(), q.ForwardHits, len(ref.ents), ref.ForwardHits)
			}
		}
		if probes == 0 {
			t.Fatalf("seed %d: no probes", seed)
		}
	}
}

// refHierarchy is the reference hierarchy: an unordered MSHR slice
// rescanned on every access, and prefetch expiry and NextFill by walks
// of the whole prefetch map.
type refHierarchy struct {
	cfg        HierarchyConfig
	l1, l2     *Cache
	mshrs      []mshr
	prefetches map[uint64]int64

	L1Hits, L2Hits, MemAccesses uint64
	MSHRFullEvents, Prefetches  uint64
}

func newRefHierarchy(cfg HierarchyConfig) *refHierarchy {
	if cfg.MSHRs == 0 {
		cfg.MSHRs = 16
	}
	return &refHierarchy{cfg: cfg, l1: MustNew(cfg.L1), l2: MustNew(cfg.L2), prefetches: map[uint64]int64{}}
}

func (h *refHierarchy) expireMSHRs(cycle int64) {
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

func (h *refHierarchy) Access(cycle int64, addr uint64, write bool) (AccessResult, bool) {
	h.expireMSHRs(cycle)
	lineAddr := h.l1.LineAddr(addr)
	for _, m := range h.mshrs {
		if m.lineAddr == lineAddr {
			return AccessResult{Ready: m.ready + int64(h.cfg.L1.HitLatency), Level: 2, Merged: true}, true
		}
	}
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
	if len(h.mshrs) >= h.cfg.MSHRs {
		h.MSHRFullEvents++
		return AccessResult{}, false
	}
	fillReady, level := h.fill(cycle, addr)
	h.mshrs = append(h.mshrs, mshr{lineAddr: lineAddr, ready: fillReady})
	h.prefetchAfter(cycle, lineAddr)
	return AccessResult{Ready: fillReady, Level: level}, true
}

func (h *refHierarchy) fill(cycle int64, addr uint64) (int64, int) {
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

func (h *refHierarchy) prefetchAfter(cycle int64, lineAddr uint64) {
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

func (h *refHierarchy) NextFill(after int64) int64 {
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

func TestHierarchyMatchesMapWalkingReference(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultHierarchyConfig()
		// Small caches evict prefetched lines, so demand touches meet
		// records in every state; varying latencies reorder fills.
		cfg.L1.SizeBytes, cfg.L2.SizeBytes = 4<<10, 64<<10
		cfg.MSHRs = []int{2, 4, 16}[seed%3]
		cfg.MemLatency = []int{0, 40, 500}[seed%3]
		cfg.PrefetchDegree = int(seed%5) + 1
		h, err := NewHierarchy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefHierarchy(h.cfg)
		cycle := int64(0)
		maxRecords := 0
		for step := 0; step < 30_000; step++ {
			// Rotate through bursts (many records in flight), lulls
			// (records complete unswept) and one slowly consumed stream
			// (a few records, each retired by a demand touch, which
			// leaves a stale heap copy behind), crossing the sweep
			// threshold in both directions.
			var addr uint64
			switch phase := (step / 2000) % 3; {
			case phase == 2:
				cycle += 20 + int64(rng.Intn(20))
				addr = uint64(0x2000000 + step*64)
			case phase == 0 || rng.Intn(3) == 0:
				cycle += int64(rng.Intn(2))
				addr = uint64(0x100000 + (step%4)*0x40000 + (step/4)*16)
			case rng.Intn(2) == 0: // random lines over a large footprint
				cycle += int64(rng.Intn(40))
				addr = uint64(rng.Intn(1<<22)) &^ 7
			default: // a hot set
				cycle += int64(rng.Intn(40))
				addr = uint64(0x8000 + rng.Intn(64)*64)
			}
			write := rng.Intn(5) == 0
			got, gotOK := h.Access(cycle, addr, write)
			want, wantOK := ref.Access(cycle, addr, write)
			if got != want || gotOK != wantOK {
				t.Fatalf("seed %d step %d: Access(%d, %#x) = %+v %v, reference %+v %v",
					seed, step, cycle, addr, got, gotOK, want, wantOK)
			}
			if len(h.prefetches) != len(ref.prefetches) {
				t.Fatalf("seed %d step %d: %d prefetch records, reference %d", seed, step, len(h.prefetches), len(ref.prefetches))
			}
			// Stale copies are compacted at inserts, so the heap stays
			// within twice the largest table plus a sweep's worth (the
			// table may peak one record higher inside an access that
			// then retires the touched record).
			maxRecords = max(maxRecords, len(h.prefetches))
			if len(h.pfOrder) > 2*(maxRecords+1)+prefetchSweepAt+1 {
				t.Fatalf("seed %d step %d: %d heap entries, at most %d records", seed, step, len(h.pfOrder), maxRecords)
			}
			for _, after := range []int64{cycle - 3, cycle, cycle + int64(rng.Intn(600))} {
				if got, want := h.NextFill(after), ref.NextFill(after); got != want {
					t.Fatalf("seed %d step %d: NextFill(%d) = %d, reference %d", seed, step, after, got, want)
				}
			}
			if h.L1Hits != ref.L1Hits || h.L2Hits != ref.L2Hits || h.MemAccesses != ref.MemAccesses ||
				h.Prefetches != ref.Prefetches || h.MSHRFullEvents != ref.MSHRFullEvents {
				t.Fatalf("seed %d step %d: counters diverged", seed, step)
			}
		}
		if maxRecords <= prefetchSweepAt {
			t.Errorf("seed %d: at most %d live prefetch records, want above the sweep threshold %d", seed, maxRecords, prefetchSweepAt)
		}
		if h.MSHRFullEvents == 0 && cfg.MSHRs <= 4 {
			t.Errorf("seed %d: no MSHR-full events with %d MSHRs", seed, cfg.MSHRs)
		}
	}
}
