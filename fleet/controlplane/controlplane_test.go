package controlplane

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"

	"clustersim/internal/api"
)

func TestMembershipLifecycle(t *testing.T) {
	m := NewMembership("http://a", "http://b")
	if m.Epoch() != 1 {
		t.Fatalf("seed epoch = %d, want 1", m.Epoch())
	}

	// alive -> draining -> removed (planned drain). Draining stays
	// assignable; removed does not.
	if ch, err := m.Transition(api.RingDrain, "http://b"); err != nil || !ch {
		t.Fatalf("drain: changed=%v err=%v", ch, err)
	}
	if !m.Assignable("http://b") {
		t.Error("draining member must remain assignable until removed")
	}
	if ch, err := m.Transition(api.RingRemove, "http://b"); err != nil || !ch {
		t.Fatalf("remove: changed=%v err=%v", ch, err)
	}
	if m.Assignable("http://b") || m.State("http://b") != api.MemberRemoved {
		t.Error("removed member still assignable")
	}

	// removed -> alive (scale the worker back in), and a brand-new URL.
	if ch, err := m.Transition(api.RingAdd, "http://b"); err != nil || !ch {
		t.Fatalf("re-add: changed=%v err=%v", ch, err)
	}
	if m.State("http://b") != api.MemberAlive {
		t.Errorf("re-added member state = %q", m.State("http://b"))
	}
	if ch, err := m.Transition(api.RingAdd, "http://c"); err != nil || !ch || !m.Assignable("http://c") {
		t.Fatalf("add new: changed=%v err=%v", ch, err)
	}
	if m.Epoch() != 5 {
		t.Errorf("epoch = %d after four transitions, want 5", m.Epoch())
	}
}

func TestMembershipInvalidTransitions(t *testing.T) {
	m := NewMembership("http://a")
	// Removing an alive member must be refused: a remove cuts the ring
	// over, and an undrained alive member still owns live keys.
	if _, err := m.Transition(api.RingRemove, "http://a"); err == nil {
		t.Error("remove of alive member succeeded")
	}
	m.Transition(api.RingDrain, "http://a")
	m.Transition(api.RingRemove, "http://a")
	// A removed member's store is gone from the fleet, so it cannot be
	// drained again.
	if _, err := m.Transition(api.RingDrain, "http://a"); err == nil {
		t.Error("drain of removed member succeeded")
	}
	for _, action := range []string{api.RingDrain, api.RingRemove} {
		if _, err := m.Transition(action, "http://nope"); err == nil {
			t.Errorf("%s of unknown member succeeded", action)
		}
	}
	// Health is each runner's own observation: the register refuses the
	// old failure-driven actions like any unknown one, and changes nothing.
	epoch := m.Epoch()
	for _, action := range []string{"bogus", "mark_dead", "readmit"} {
		if _, err := m.Transition(action, "http://a"); err == nil {
			t.Errorf("action %q succeeded", action)
		}
	}
	if m.Epoch() != epoch {
		t.Errorf("refused actions moved the epoch %d -> %d", epoch, m.Epoch())
	}
}

// No-op transitions succeed without bumping the epoch — the property
// that lets N runners propose the same change idempotently.
func TestMembershipIdempotentNoOps(t *testing.T) {
	cases := []struct{ action, setup string }{
		{api.RingAdd, ""},            // already alive
		{api.RingAdd, api.RingDrain}, // adding a draining member
		{api.RingDrain, api.RingDrain},
	}
	for _, c := range cases {
		m2 := NewMembership("http://a")
		if c.setup != "" {
			if _, err := m2.Transition(c.setup, "http://a"); err != nil {
				t.Fatal(err)
			}
		}
		before := m2.Epoch()
		ch, err := m2.Transition(c.action, "http://a")
		if err != nil || ch {
			t.Errorf("%s after %q: changed=%v err=%v", c.action, c.setup, ch, err)
		}
		if m2.Epoch() != before {
			t.Errorf("%s no-op bumped epoch %d -> %d", c.action, before, m2.Epoch())
		}
	}
	m3 := NewMembership("http://a")
	m3.Transition(api.RingDrain, "http://a")
	m3.Transition(api.RingRemove, "http://a")
	if ch, err := m3.Transition(api.RingRemove, "http://a"); err != nil || ch {
		t.Errorf("remove twice: changed=%v err=%v", ch, err)
	}
}

func TestViewApplyNewestWins(t *testing.T) {
	m := NewMembership("http://a", "http://b")
	m.Transition(api.RingDrain, "http://b") // epoch 2
	v := m.View()
	if !sort.SliceIsSorted(v.Members, func(i, j int) bool { return v.Members[i].URL < v.Members[j].URL }) {
		t.Error("view members not sorted by URL")
	}

	// A stale view must not roll the table back.
	stale := api.RingView{Epoch: 1, Members: []api.MemberState{{URL: "http://b", State: api.MemberAlive, Epoch: 1}}}
	if m.Apply(stale) {
		t.Error("stale view applied")
	}
	if m.State("http://b") != api.MemberDraining {
		t.Error("stale view clobbered local state")
	}

	// A fresher view replaces the table wholesale.
	fresh := api.RingView{Epoch: 9, Members: []api.MemberState{
		{URL: "http://b", State: api.MemberAlive, Epoch: 9},
		{URL: "http://c", State: api.MemberAlive, Epoch: 8},
	}}
	if !m.Apply(fresh) {
		t.Fatal("fresh view rejected")
	}
	if m.Epoch() != 9 || m.State("http://a") != "" || m.State("http://c") != api.MemberAlive {
		t.Errorf("after apply: epoch=%d a=%q c=%q", m.Epoch(), m.State("http://a"), m.State("http://c"))
	}

	// Round trip: applying a view onto an empty table reproduces it.
	m2 := NewMembership()
	m2.Apply(m.View())
	if got, want := fmt.Sprint(m2.View()), fmt.Sprint(m.View()); got != want {
		t.Errorf("view round trip: %s != %s", got, want)
	}
}

func TestSatisfied(t *testing.T) {
	m := NewMembership("http://a", "http://b", "http://c")
	m.Transition(api.RingDrain, "http://b")
	m.Transition(api.RingDrain, "http://c")
	m.Transition(api.RingRemove, "http://c")
	checks := []struct {
		action, url string
		want        bool
	}{
		{api.RingAdd, "http://a", true},
		{api.RingAdd, "http://b", true},
		{api.RingAdd, "http://c", false},
		{api.RingAdd, "http://new", false},
		{api.RingDrain, "http://a", false},
		{api.RingDrain, "http://b", true},
		{api.RingDrain, "http://c", true},
		{api.RingRemove, "http://b", false},
		{api.RingRemove, "http://c", true},
		{"mark_dead", "http://a", false},
	}
	for _, c := range checks {
		if got := actionSatisfied(c.action, m.State(c.url)); got != c.want {
			t.Errorf("satisfied(%s, %s) = %v, want %v", c.action, c.url, got, c.want)
		}
	}
}

// fakeCoord is an in-memory coordinator implementing CoordClient over a
// server-side Membership — the same CAS semantics the service exposes.
type fakeCoord struct {
	mu        sync.Mutex
	m         *Membership
	conflicts int // inject n leading conflicts regardless of epoch
	proposals int
}

func (f *fakeCoord) Ring(ctx context.Context) (*api.RingView, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	v := f.m.View()
	return &v, nil
}

func (f *fakeCoord) ProposeRing(ctx context.Context, tr api.RingTransition) (*api.RingView, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.proposals++
	if f.conflicts > 0 || tr.BaseEpoch != f.m.Epoch() {
		f.conflicts--
		v := f.m.View()
		return &v, &api.Error{Code: api.CodeEpochConflict, Message: "stale epoch", Status: 409}
	}
	if _, err := f.m.Transition(tr.Action, tr.URL); err != nil {
		return nil, &api.Error{Code: api.CodeBadRequest, Message: err.Error(), Status: 400}
	}
	v := f.m.View()
	return &v, nil
}

func TestCoordinatorProposeRetriesConflicts(t *testing.T) {
	server := NewMembership("http://a", "http://b")
	local := NewMembership("http://a", "http://b")
	fc := &fakeCoord{m: server, conflicts: 2}
	co := NewCoordinator(fc, local)

	if err := co.Propose(context.Background(), api.RingDrain, "http://b"); err != nil {
		t.Fatalf("Propose: %v", err)
	}
	if server.State("http://b") != api.MemberDraining {
		t.Error("transition never landed on the coordinator")
	}
	if local.Epoch() != server.Epoch() {
		t.Errorf("local epoch %d != coordinator epoch %d after propose", local.Epoch(), server.Epoch())
	}
}

// Losing the race to a runner that made the same change is success: the
// conflict response shows the goal satisfied and Propose stops.
func TestCoordinatorProposeSatisfiedByRival(t *testing.T) {
	server := NewMembership("http://a", "http://b")
	server.Transition(api.RingDrain, "http://b")   // a rival started the drain first
	local := NewMembership("http://a", "http://b") // stale: thinks epoch 1
	fc := &fakeCoord{m: server}
	co := NewCoordinator(fc, local)

	if err := co.Propose(context.Background(), api.RingDrain, "http://b"); err != nil {
		t.Fatalf("Propose after rival: %v", err)
	}
	if fc.proposals != 1 {
		t.Errorf("proposals = %d, want 1 (conflict view already satisfied the goal)", fc.proposals)
	}
	if local.State("http://b") != api.MemberDraining {
		t.Error("local table did not adopt the rival's change")
	}
}

func TestCoordinatorNilIsLocal(t *testing.T) {
	local := NewMembership("http://a")
	co := NewCoordinator(nil, local)
	if co.Enabled() {
		t.Fatal("nil client reports enabled")
	}
	if err := co.Propose(context.Background(), api.RingDrain, "http://a"); err != nil {
		t.Fatalf("local propose: %v", err)
	}
	if local.State("http://a") != api.MemberDraining {
		t.Error("local propose did not apply")
	}
}

// fakeStore is an in-memory Source+Sink with configurable paging and
// injected fetch failures.
type fakeStore struct {
	mu       sync.Mutex
	blobs    map[string][]byte
	failKeys map[string]bool
}

func newFakeStore(keys ...string) *fakeStore {
	f := &fakeStore{blobs: map[string][]byte{}, failKeys: map[string]bool{}}
	for _, k := range keys {
		f.blobs[k] = []byte("blob:" + k)
	}
	return f
}

func (f *fakeStore) Keys(_ context.Context, limit int, cursor string) ([]string, string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var all []string
	for k := range f.blobs {
		if k > cursor {
			all = append(all, k)
		}
	}
	sort.Strings(all)
	// Force tiny pages so Migrate's paging loop is exercised even with
	// the production page size.
	pageLen := 3
	if limit > 0 && limit < pageLen {
		pageLen = limit
	}
	if len(all) > pageLen {
		return all[:pageLen], all[pageLen-1], nil
	}
	return all, "", nil
}

func (f *fakeStore) RawResult(_ context.Context, key string) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failKeys[key] {
		return nil, errors.New("injected fetch failure")
	}
	b, ok := f.blobs[key]
	if !ok {
		return nil, errors.New("no such key")
	}
	return b, nil
}

func (f *fakeStore) PutResult(_ context.Context, key string, blob []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.blobs[key] = append([]byte(nil), blob...)
	return nil
}

func TestMigrateRoutesEveryKey(t *testing.T) {
	src := newFakeStore("k01", "k02", "k03", "k04", "k05", "k06", "k07")
	a, b := newFakeStore(), newFakeStore()
	moved, failed, err := Migrate(context.Background(), src, func(key string) Sink {
		if key == "k04" {
			return nil // route says: this key stays put
		}
		if key < "k04" {
			return a
		}
		return b
	}, t.Logf)
	if err != nil || failed != 0 {
		t.Fatalf("Migrate: moved=%d failed=%d err=%v", moved, failed, err)
	}
	if moved != 6 {
		t.Errorf("moved = %d, want 6 (one key routed nil)", moved)
	}
	for _, k := range []string{"k01", "k02", "k03"} {
		if string(a.blobs[k]) != "blob:"+k {
			t.Errorf("sink a missing %s", k)
		}
	}
	for _, k := range []string{"k05", "k06", "k07"} {
		if string(b.blobs[k]) != "blob:"+k {
			t.Errorf("sink b missing %s", k)
		}
	}
	if _, ok := a.blobs["k04"]; ok {
		t.Error("nil-routed key migrated anyway")
	}
}

func TestMigrateCountsFailuresWithoutAborting(t *testing.T) {
	src := newFakeStore("k1", "k2", "k3")
	src.failKeys["k2"] = true
	sink := newFakeStore()
	moved, failed, err := Migrate(context.Background(), src, func(string) Sink { return sink }, t.Logf)
	if err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	if moved != 2 || failed != 1 {
		t.Errorf("moved=%d failed=%d, want 2/1", moved, failed)
	}
}

func TestMigrateHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	src := newFakeStore("k1", "k2")
	_, _, err := Migrate(ctx, src, func(string) Sink { return newFakeStore() }, t.Logf)
	if err == nil {
		t.Error("canceled Migrate returned nil error")
	}
}
