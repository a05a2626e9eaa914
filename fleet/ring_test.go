package fleet

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"clustersim/fleet/controlplane"
	"clustersim/internal/api"
)

// testKeys is a fixed, suite-shaped key set: shard assignment over it is
// an external contract (each worker's store is warmed for its range), so
// these tests pin its stability properties.
func testKeys() []string {
	keys := make([]string, 0, 240)
	for i := 0; i < 40; i++ {
		for _, setup := range []string{"OP", "1cl", "OB", "RHOP", "VC(2->2)", "VC(4->4)"} {
			keys = append(keys, fmt.Sprintf("result|v1|bench-%d|s%d|%s|c2|u120000", i, i, setup))
		}
	}
	return keys
}

func assignAll(r *ring, urls []string, alive func(int) bool) map[string]string {
	if alive == nil {
		alive = func(int) bool { return true }
	}
	got := map[string]string{}
	for _, k := range testKeys() {
		m := r.pick(k, alive)
		if m < 0 {
			got[k] = ""
			continue
		}
		got[k] = urls[m]
	}
	return got
}

// The assignment is a pure function of the membership *set*: rebuilding
// the ring, or permuting the URL slice, changes nothing — which is what
// lets every client of the same fleet route a key to the same worker.
func TestRingAssignmentDeterministic(t *testing.T) {
	urls := []string{"http://w1:8080", "http://w2:8080", "http://w3:8080"}
	perm := []string{"http://w3:8080", "http://w1:8080", "http://w2:8080"}

	a := assignAll(newRing(urls), urls, nil)
	b := assignAll(newRing(urls), urls, nil)
	c := assignAll(newRing(perm), perm, nil)
	for k, owner := range a {
		if b[k] != owner {
			t.Fatalf("rebuild moved %q: %s -> %s", k, owner, b[k])
		}
		if c[k] != owner {
			t.Fatalf("permutation moved %q: %s -> %s", k, owner, c[k])
		}
	}

	// Every worker owns a share: 64 virtual points per member keep a
	// small fleet from starving any one worker on a suite-sized key set.
	counts := map[string]int{}
	for _, owner := range a {
		counts[owner]++
	}
	for _, u := range urls {
		if counts[u] == 0 {
			t.Errorf("worker %s owns no keys", u)
		}
	}
}

// Placement stays balanced for workers whose URLs differ only in the
// port, as a local fleet's do: across 500 such pairs, a suite-sized
// batch of 16 keys is never handed wholly to one worker, and rarely all
// but one or two of its keys.
func TestRingBalancesNearIdenticalURLs(t *testing.T) {
	keys := testKeys()[:16]
	lopsided := 0
	for p := 0; p < 500; p++ {
		urls := []string{fmt.Sprintf("http://127.0.0.1:%d", 40000+2*p), fmt.Sprintf("http://127.0.0.1:%d", 40001+2*p)}
		r := newRing(urls)
		n := 0
		for _, k := range keys {
			if r.pick(k, func(int) bool { return true }) == 0 {
				n++
			}
		}
		if n == 0 || n == len(keys) {
			t.Fatalf("workers %v: all %d keys on one worker", urls, len(keys))
		}
		if n <= 2 || n >= len(keys)-2 {
			lopsided++
		}
	}
	if lopsided > 25 {
		t.Errorf("%d of 500 worker pairs split 16 keys 2:14 or worse", lopsided)
	}
}

// Adding one worker migrates only the key range the new worker takes
// over: every key whose owner changed must now belong to the newcomer,
// and the migration is partial — most keys stay put. This is the
// consistent-hashing contract that keeps existing workers' stores hot
// across a fleet resize.
func TestRingResizeMigratesOnlyToNewWorker(t *testing.T) {
	old := []string{"http://w1:8080", "http://w2:8080"}
	grown := []string{"http://w1:8080", "http://w2:8080", "http://w3:8080"}

	before := assignAll(newRing(old), old, nil)
	after := assignAll(newRing(grown), grown, nil)

	moved := 0
	for k, owner := range before {
		if after[k] == owner {
			continue
		}
		moved++
		if after[k] != "http://w3:8080" {
			t.Errorf("key %q migrated between existing workers: %s -> %s", k, owner, after[k])
		}
	}
	if moved == 0 {
		t.Error("new worker took over no keys")
	}
	if moved == len(before) {
		t.Error("every key moved: assignment is not consistent-hashed")
	}
	// The expected migrated share is ~1/3; allow a generous band so the
	// fixture pins behavior, not hash-function luck.
	if frac := float64(moved) / float64(len(before)); frac > 0.6 {
		t.Errorf("%.0f%% of keys migrated on adding one of three workers", frac*100)
	}
}

// A dead member's keys fail over to the clockwise survivors
// deterministically, and surviving members' keys never move.
func TestRingSkipsDeadMembers(t *testing.T) {
	urls := []string{"http://w1:8080", "http://w2:8080", "http://w3:8080"}
	r := newRing(urls)

	all := assignAll(r, urls, nil)
	w2Dead := assignAll(r, urls, func(i int) bool { return i != 1 })
	for k, owner := range all {
		switch owner {
		case "http://w2:8080":
			if w2Dead[k] == "http://w2:8080" {
				t.Fatalf("dead worker still owns %q", k)
			}
		default:
			if w2Dead[k] != owner {
				t.Errorf("survivor's key %q moved: %s -> %s", k, owner, w2Dead[k])
			}
		}
	}

	if got := r.pick("anything", func(int) bool { return false }); got != -1 {
		t.Errorf("pick with no members alive = %d, want -1", got)
	}
}

// assignFiltered routes the fixed key set through a ring whose liveness
// comes from a membership table — placement exactly as the Runner
// computes it.
func assignFiltered(r *ring, urls []string, m *controlplane.Membership) map[string]string {
	return assignAll(r, urls, func(i int) bool { return m.Assignable(urls[i]) })
}

// Re-admission is placement-exact: opening a member's circuit and
// re-admitting it through the half-open probe restores precisely the
// assignment that held before the failure, because the member's virtual
// points never left the ring — the walk merely skipped them. Health is
// local, so none of this moves the membership epoch.
func TestRingReadmitRestoresExactPlacement(t *testing.T) {
	urls := []string{"http://w1:8080", "http://w2:8080", "http://w3:8080"}
	r := newRing(urls)
	m := controlplane.NewMembership(urls...)
	clk := &fakeClock{t: time.Unix(1000, 0)}
	hs := make([]*health, len(urls))
	for i := range hs {
		hs[i] = newHealth(time.Second)
		hs[i].now = clk.now
	}
	route := func() map[string]string {
		return assignAll(r, urls, func(i int) bool { return m.Assignable(urls[i]) && allowed(hs[i], answers) })
	}

	before := route()
	e0 := m.Epoch()

	hs[1].failure(errors.New("probe timeout"), false)
	during := route()
	for k, owner := range during {
		if owner == urls[1] {
			t.Fatalf("lost member still owns %q", k)
		}
		if before[k] != urls[1] && owner != before[k] {
			t.Fatalf("loss moved a survivor's key %q: %s -> %s", k, before[k], owner)
		}
	}

	clk.advance(time.Second)
	if !allowed(hs[1], answers) || !hs[1].success() {
		t.Fatal("half-open probe did not re-admit the member")
	}
	if after := route(); !reflect.DeepEqual(before, after) {
		t.Error("re-admission did not restore the exact pre-failure placement")
	}
	if e := m.Epoch(); e != e0 {
		t.Errorf("epoch moved %d -> %d on a local health change", e0, e)
	}
}

// Drain and scale-up move only the ranges that change hands: a draining
// member keeps its assignment until the removal cutover; removal moves
// exactly its keys (to survivors); adding a member moves keys only onto
// the newcomer, and never resurrects a removed member.
func TestRingDrainAndAddMoveOnlyTheirRanges(t *testing.T) {
	urls := []string{"http://w1:8080", "http://w2:8080", "http://w3:8080"}
	r := newRing(urls)
	m := controlplane.NewMembership(urls...)
	before := assignFiltered(r, urls, m)

	// Draining is not yet a placement change: the worker keeps serving
	// its range while its blobs migrate.
	if _, err := m.Transition(api.RingDrain, urls[1]); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, assignFiltered(r, urls, m)) {
		t.Fatal("draining moved keys before the removal cutover")
	}

	// Removal is the cutover: exactly the drained member's keys move.
	if _, err := m.Transition(api.RingRemove, urls[1]); err != nil {
		t.Fatal(err)
	}
	after := assignFiltered(r, urls, m)
	for k, owner := range after {
		switch {
		case before[k] == urls[1] && owner == urls[1]:
			t.Fatalf("removed member still owns %q", k)
		case before[k] != urls[1] && owner != before[k]:
			t.Fatalf("removal moved a survivor's key %q: %s -> %s", k, before[k], owner)
		}
	}

	// Scale-up: the grown ring moves keys only onto the newcomer, and the
	// removed member stays out even though its URL is still on the ring.
	grown := append(append([]string(nil), urls...), "http://w4:8080")
	r2 := newRing(grown)
	if _, err := m.Transition(api.RingAdd, "http://w4:8080"); err != nil {
		t.Fatal(err)
	}
	final := assignFiltered(r2, grown, m)
	moved := 0
	for k, owner := range final {
		if owner == urls[1] {
			t.Fatalf("removed member re-acquired %q through the resize", k)
		}
		if owner != after[k] {
			moved++
			if owner != "http://w4:8080" {
				t.Fatalf("resize moved %q between existing members: %s -> %s", k, after[k], owner)
			}
		}
	}
	if moved == 0 {
		t.Error("newcomer took over no keys")
	}
}
