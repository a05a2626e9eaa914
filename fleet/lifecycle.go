package fleet

// This file is the fleet's live-membership surface: coordinator wiring,
// planned drains that migrate a departing worker's key range to its ring
// successors, scale-up backfills that warm a newcomer from the previous
// owners, and the FleetStats snapshot operators read to see why a worker
// is excluded.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"clustersim/client"
	"clustersim/fleet/controlplane"
	"clustersim/internal/api"
)

// drainMaxPasses bounds Drain's migrate-until-stable loop: each pass
// moves the keys that landed on the drainer since the previous listing,
// so a second pass normally finds nothing and the bound exists only to
// keep a worker that fails every upload from looping forever.
const drainMaxPasses = 8

// MemberStatus is one worker's entry in FleetStats: its planned state in
// the membership register and the epoch of its last change, then this
// runner's own circuit for it and the failure that last counted against
// that circuit.
type MemberStatus struct {
	URL   string
	State string // alive | draining | removed
	Epoch int64
	// Health is closed | open | half-open; empty for a register member
	// this runner holds no connection to.
	Health    string
	LastError string
}

// Stats is the fleet's control-plane snapshot, distinct from the
// engine.CacheStats aggregate Stats() returns.
type Stats struct {
	// Epoch is the current membership epoch.
	Epoch int64
	// Members lists every worker the fleet has ever admitted (including
	// removed ones), sorted by URL.
	Members []MemberStatus
	// Readmissions counts circuits a successful request closed again.
	Readmissions int64
	// DrainMigrated counts result blobs moved off draining workers;
	// Backfilled counts blobs copied onto newly added ones.
	DrainMigrated int64
	Backfilled    int64
}

// WorkerLatency is one worker's per-route latency histograms, as
// fetched by fleetctl top.
type WorkerLatency struct {
	URL    string
	Routes []api.LatencyHistogram
	// Err records a fetch failure; Routes is nil then. A down worker
	// costs its own error entry, never the whole listing.
	Err error
}

// MergeRouteLatencies folds per-worker route histograms into one set:
// same-route series are bucket-summed, routes are sorted by name.
func MergeRouteLatencies(per []WorkerLatency) []api.LatencyHistogram {
	byRoute := map[string]api.LatencyHistogram{}
	for _, w := range per {
		for _, h := range w.Routes {
			if prev, ok := byRoute[h.Route]; ok {
				byRoute[h.Route] = api.MergeLatency(prev, h)
			} else {
				byRoute[h.Route] = h
			}
		}
	}
	routes := make([]string, 0, len(byRoute))
	for route := range byRoute {
		routes = append(routes, route)
	}
	sort.Strings(routes)
	out := make([]api.LatencyHistogram, 0, len(routes))
	for _, route := range routes {
		out = append(out, byRoute[route])
	}
	return out
}

// FleetStats snapshots the control plane: the membership view, each
// member's circuit, and the lifetime re-admission and migration
// counters.
func (f *Runner) FleetStats() Stats {
	v := f.mship.View()
	s := Stats{
		Epoch:         v.Epoch,
		Members:       make([]MemberStatus, len(v.Members)),
		Readmissions:  f.readmissions.Load(),
		DrainMigrated: f.drainMigrated.Load(),
		Backfilled:    f.backfilled.Load(),
	}
	for i, ms := range v.Members {
		s.Members[i] = MemberStatus{URL: ms.URL, State: ms.State, Epoch: ms.Epoch}
		if m := f.lookupMember(ms.URL); m != nil {
			s.Members[i].Health, _, s.Members[i].LastError = m.h.status()
		}
	}
	return s
}

// transition drives one membership change through the coordinator (or
// the local table when none is configured) and logs actual state
// changes.
func (f *Runner) transition(ctx context.Context, action, url string) error {
	before := f.mship.State(url)
	if err := f.coordinator.Propose(ctx, action, url); err != nil {
		return err
	}
	if after := f.mship.State(url); after != before {
		f.logf("fleet: membership: %s %s (%s -> %s, epoch %d)", action, url, before, after, f.mship.Epoch())
	}
	return nil
}

// syncMembership pulls the coordinator's view (when one is configured)
// and adopts any workers other runners admitted that this one has no
// connection to yet. Called before each batch and between failover
// rounds; a sync failure is logged, never fatal — the fleet keeps
// running on its last-known view.
func (f *Runner) syncMembership(ctx context.Context) {
	if !f.coordinator.Enabled() {
		return
	}
	if _, err := f.coordinator.Sync(ctx); err != nil {
		f.logf("fleet: coordinator sync failed: %v", err)
		return
	}
	f.adoptFromView()
}

// adoptFromView builds connections for assignable members present in
// the membership table but missing from the placement — workers another
// runner added through the shared coordinator.
func (f *Runner) adoptFromView() {
	for _, ms := range f.mship.View().Members {
		if !f.mship.Assignable(ms.URL) || f.lookupMember(ms.URL) != nil {
			continue
		}
		m, err := f.newMember(ms.URL)
		if err != nil {
			f.logf("fleet: cannot adopt coordinator member %s: %v", ms.URL, err)
			continue
		}
		f.admit(m)
		f.logf("fleet: adopted worker %s from coordinator view (epoch %d)", ms.URL, f.mship.Epoch())
	}
}

// admit appends a member and swaps in a placement whose ring includes
// its virtual points. Adding a URL is the one membership change that
// rebuilds the ring — every other transition only changes which points
// the clockwise walk skips.
func (f *Runner) admit(m *member) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !slices.ContainsFunc(f.pl.members, func(mm *member) bool { return mm.url == m.url }) {
		f.pl = f.pl.with(m)
	}
}

// connectCoordinator binds the runner to a clusterd -coordinator:
// adopt its view, announce every constructed worker it doesn't know
// (seeding a fresh register on first contact), and adopt workers it
// knows that we don't. Workers the register lists as removed stay
// removed — a runner restarted with a stale worker list must not
// resurrect a drained worker; that is what AddWorker is for.
func (f *Runner) connectCoordinator(ctx context.Context, url string) error {
	cc, err := client.New(url, f.copts...)
	if err != nil {
		return fmt.Errorf("fleet: coordinator: %w", err)
	}
	f.coordinator = controlplane.NewCoordinator(cc, f.mship)
	view, err := f.coordinator.Sync(ctx)
	if err != nil {
		return fmt.Errorf("fleet: coordinator %s unreachable: %w", url, err)
	}
	for _, m := range f.placementSnapshot().members {
		switch controlplane.StateIn(view, m.url) {
		case "":
			if err := f.coordinator.Propose(ctx, api.RingAdd, m.url); err != nil {
				return fmt.Errorf("fleet: announcing %s to coordinator: %w", m.url, err)
			}
		case api.MemberRemoved:
			f.logf("fleet: coordinator lists %s as removed; not re-adding (use AddWorker)", m.url)
		}
	}
	f.adoptFromView()
	return nil
}

// Close releases the runner. Health probes run inline with routing, so
// there is no background work to stop; the runner stays usable.
func (f *Runner) Close() {}

// recordedSink marks keys moved only after their upload succeeds, so a
// failed copy stays eligible for the next migration pass.
type recordedSink struct {
	sink controlplane.Sink
	mark func(key string)
}

func (r recordedSink) PutResult(ctx context.Context, key string, blob []byte) error {
	if err := r.sink.PutResult(ctx, key, blob); err != nil {
		return err
	}
	r.mark(key)
	return nil
}

// Drain removes a worker from the fleet without losing cache affinity:
// the worker keeps serving its key range while every result it holds is
// copied to the worker's ring successors (the members that will own
// those keys once it is gone), and only then is it removed. Because the
// draining worker stays assignable until the cutover, a batch running
// concurrently keeps hitting its warm store, and the successors' stores
// are warm the moment they inherit the range — zero duplicate
// simulations on either side of the removal.
func (f *Runner) Drain(ctx context.Context, url string) error {
	url = strings.TrimRight(url, "/")
	mem := f.lookupMember(url)
	if mem == nil {
		return fmt.Errorf("fleet: unknown worker %s", url)
	}
	f.syncMembership(ctx)
	if !f.answering(mem) {
		return fmt.Errorf("fleet: cannot drain %s worker %s (removed, or its store is unreachable)", f.mship.State(url), url)
	}
	pl := f.placementSnapshot()
	isSuccessor := func(m *member) bool { return m != mem && f.answering(m) }
	if !slices.ContainsFunc(pl.members, isSuccessor) {
		return errors.New("fleet: no assignable worker to drain to")
	}

	if err := f.transition(ctx, api.RingDrain, url); err != nil {
		return err
	}

	// Migrate until a pass moves nothing new: results that land on the
	// drainer after a listing was served are caught by the next pass.
	var mu sync.Mutex
	moved := map[string]bool{}
	mark := func(key string) { mu.Lock(); moved[key] = true; mu.Unlock() }
	total := 0
	for pass := 0; pass < drainMaxPasses; pass++ {
		route := func(key string) controlplane.Sink {
			mu.Lock()
			done := moved[key]
			mu.Unlock()
			if done {
				return nil
			}
			succ := pl.ring.pick(key, func(i int) bool { return isSuccessor(pl.members[i]) })
			if succ < 0 {
				return nil
			}
			return recordedSink{sink: pl.members[succ].c, mark: mark}
		}
		n, failed, err := controlplane.Migrate(ctx, mem.c, route, f.logf)
		total += n
		f.drainMigrated.Add(int64(n))
		if err != nil {
			return fmt.Errorf("fleet: draining %s after %d blob(s): %w", url, total, err)
		}
		if n == 0 {
			if failed > 0 {
				f.logf("fleet: drain of %s: %d blob(s) failed to migrate; their keys lose cache affinity", url, failed)
			}
			break
		}
	}
	f.logf("fleet: drained %s: migrated %d blob(s) to ring successors", url, total)

	return f.transition(ctx, api.RingRemove, url)
}

// AddWorker scales the fleet up: health-check the newcomer, warm its
// store by copying over the key ranges it will steal from the current
// owners (computed against a candidate ring that already includes it),
// and only then announce it — so the first batch after the ring grows
// finds the newcomer's store already holding its range, and nothing is
// re-simulated. Re-adding a removed worker takes the same path, and so
// does a member whose circuit is open: once its health check passes,
// the backfill copies what the survivors computed in its range during
// the outage, and its circuit closes at once instead of after the
// cooldown.
func (f *Runner) AddWorker(ctx context.Context, url string) error {
	url = strings.TrimRight(url, "/")
	f.syncMembership(ctx)
	mem := f.lookupMember(url)
	if mem != nil && f.mship.Assignable(url) {
		if state, _, _ := mem.h.status(); state == HealthClosed {
			return nil // already serving
		}
	}
	if mem == nil {
		var err error
		if mem, err = f.newMember(url); err != nil {
			return err
		}
	}
	hctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if _, err := mem.c.Stats(hctx); err != nil {
		return fmt.Errorf("fleet: worker %s failed its health check: %w", url, err)
	}

	// The candidate ring: today's members plus the newcomer. Keys whose
	// candidate owner is the newcomer are exactly its stolen ranges.
	cand := f.placementSnapshot()
	if !slices.Contains(cand.members, mem) {
		cand = cand.with(mem)
	}
	candAssignable := func(i int) bool { return cand.members[i] == mem || f.answering(cand.members[i]) }

	total := 0
	for _, src := range cand.members {
		if src == mem || !f.answering(src) {
			continue
		}
		route := func(key string) controlplane.Sink {
			if m := cand.ring.pick(key, candAssignable); m >= 0 && cand.members[m] == mem {
				return mem.c
			}
			return nil
		}
		n, failed, err := controlplane.Migrate(ctx, src.c, route, f.logf)
		total += n
		f.backfilled.Add(int64(n))
		if err != nil {
			return fmt.Errorf("fleet: backfilling %s from %s after %d blob(s): %w", url, src.url, total, err)
		}
		if failed > 0 {
			f.logf("fleet: backfill of %s from %s: %d blob(s) failed; those keys re-simulate on first use", url, src.url, failed)
		}
	}
	f.logf("fleet: backfilled %s with %d blob(s) from previous owners", url, total)

	// Announce last: the ring grows only once the newcomer's store holds
	// its range.
	f.admit(mem)
	if err := f.transition(ctx, api.RingAdd, url); err != nil {
		return err
	}
	f.succeeded(mem)
	return nil
}
