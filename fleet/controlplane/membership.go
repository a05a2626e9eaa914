// Package controlplane is the fleet's membership brain: the state
// machine for the planned, operator-driven transitions (add, drain,
// remove) that say which workers exist, the coordinator protocol that
// lets N concurrent fleet runners converge on one view, and the
// key-migration engine behind planned drains and scale-up backfills.
// Whether a member currently answers is not membership: each runner
// observes worker health locally and never publishes it.
//
// The design follows the scalable-synchronization playbook: placement is
// never transmitted — every runner recomputes the consistent-hash ring
// locally from the membership view, the way a combining tree keeps
// computation at the leaves — and the coordinator is a tiny epoch-guarded
// register (a compare-and-swap cell holding the member list), not a
// scheduler. All the heavy state (which keys live where) stays sharded
// across the workers' own stores; the control plane only moves names.
//
// Membership is shared by both sides of the wire: fleet.Runner instances
// run one locally, and a clusterd in -coordinator mode runs the
// authoritative one behind GET/POST /v1/ring.
package controlplane

import (
	"fmt"
	"sort"
	"sync"

	"clustersim/internal/api"
)

// Membership is an epoch-versioned member table. Every successful
// transition increments the epoch, so two views are interchangeable
// exactly when their epochs match. Safe for concurrent use.
type Membership struct {
	mu      sync.Mutex
	epoch   int64
	members map[string]*api.MemberState
}

// NewMembership builds a table admitting the given URLs as alive at
// epoch 1 (or an empty table at epoch 0 when urls is empty — the state a
// fresh coordinator starts in, waiting for a runner to seed it).
func NewMembership(urls ...string) *Membership {
	m := &Membership{members: map[string]*api.MemberState{}}
	if len(urls) > 0 {
		m.epoch = 1
		for _, u := range urls {
			m.members[u] = &api.MemberState{URL: u, State: api.MemberAlive, Epoch: 1}
		}
	}
	return m
}

// Epoch returns the current membership epoch.
func (m *Membership) Epoch() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epoch
}

// State returns a member's current state ("" for unknown URLs).
func (m *Membership) State(url string) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ms, ok := m.members[url]; ok {
		return ms.State
	}
	return ""
}

// Assignable reports whether new work may be placed on url: alive
// members, and draining ones — a draining worker keeps owning its key
// range (and serving from its warm store) until the drain's migration
// finishes and it is removed, which is what makes the removal cutover
// lossless.
func (m *Membership) Assignable(url string) bool {
	switch m.State(url) {
	case api.MemberAlive, api.MemberDraining:
		return true
	}
	return false
}

// View snapshots the table: the epoch plus every member (including
// removed ones — their tombstones keep a re-added URL's history), sorted
// by URL so two equal views render identically.
func (m *Membership) View() api.RingView {
	m.mu.Lock()
	defer m.mu.Unlock()
	v := api.RingView{Epoch: m.epoch, Members: make([]api.MemberState, 0, len(m.members))}
	for _, ms := range m.members {
		v.Members = append(v.Members, *ms)
	}
	sort.Slice(v.Members, func(i, j int) bool { return v.Members[i].URL < v.Members[j].URL })
	return v
}

// Apply adopts a (coordinator-published) view wholesale when it is at
// least as new as the local one, and reports whether it did. Views never
// merge — the coordinator's epoch totally orders them, so the newest
// view simply wins; a local table that is ahead (seeded from a runner's
// worker list, or changed locally before a coordinator was configured)
// keeps its own state until the coordinator catches up past it.
func (m *Membership) Apply(v api.RingView) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if v.Epoch < m.epoch {
		return false
	}
	if v.Epoch == m.epoch && len(m.members) > 0 {
		return false // same epoch: views are interchangeable already
	}
	m.epoch = v.Epoch
	m.members = make(map[string]*api.MemberState, len(v.Members))
	for i := range v.Members {
		ms := v.Members[i]
		m.members[ms.URL] = &ms
	}
	return true
}

// Transition applies one planned membership action and reports whether
// it changed anything (no-op transitions — re-adding a live member,
// draining a draining one — succeed without bumping the epoch, which is
// what lets N runners propose the same change idempotently). An error
// means the transition is invalid from the member's current state and
// was not applied.
func (m *Membership) Transition(action, url string) (changed bool, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ms := m.members[url]
	if ms == nil && action != api.RingAdd {
		return false, fmt.Errorf("controlplane: %s of unknown member %s", action, url)
	}
	from, to := "", ""
	switch action {
	case api.RingAdd:
		from, to = api.MemberRemoved, api.MemberAlive
		if ms == nil {
			ms = &api.MemberState{URL: url, State: from}
		}
	case api.RingDrain:
		from, to = api.MemberAlive, api.MemberDraining
	case api.RingRemove:
		from, to = api.MemberDraining, api.MemberRemoved
	default:
		return false, fmt.Errorf("controlplane: unknown ring action %q", action)
	}
	switch {
	case ms.State == from:
		ms.State = to
		m.bump(ms)
		return true, nil
	case ms.State == to, action == api.RingAdd: // adding a draining member is a no-op too
		return false, nil
	}
	return false, fmt.Errorf("controlplane: cannot %s %s member %s", action, ms.State, url)
}

// bump records a state change: the table's epoch advances and the member
// is stamped with it (inserting it first if new).
func (m *Membership) bump(ms *api.MemberState) {
	m.epoch++
	ms.Epoch = m.epoch
	m.members[ms.URL] = ms
}

// actionSatisfied reports whether a member in the given state already
// meets a transition's goal ("" means unknown member) — the check a
// proposer runs after losing a CAS race: if another runner already made
// the same change, there is nothing left to propose.
func actionSatisfied(action, state string) bool {
	switch action {
	case api.RingAdd:
		return state != "" && state != api.MemberRemoved
	case api.RingDrain:
		return state == api.MemberDraining || state == api.MemberRemoved
	case api.RingRemove:
		return state == api.MemberRemoved
	}
	return false
}
