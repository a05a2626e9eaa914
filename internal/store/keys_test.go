package store

import (
	"context"
	"fmt"
	"os"
	"sort"
	"testing"
)

// walkKeys pages through a store with the given page size and
// returns every key, failing on a walk that never terminates.
func walkKeys(t *testing.T, st Store, limit int) []string {
	t.Helper()
	var all []string
	cursor := ""
	for pages := 0; ; pages++ {
		if pages > 1000 {
			t.Fatal("key walk did not terminate")
		}
		keys, next, err := st.Keys(context.Background(), limit, cursor)
		if err != nil {
			t.Fatalf("Keys: %v", err)
		}
		all = append(all, keys...)
		if next == "" {
			return all
		}
		if limit > 0 && len(keys) > limit {
			t.Fatalf("page of %d keys exceeds limit %d", len(keys), limit)
		}
		cursor = next
	}
}

// seed puts n distinct keyed blobs and returns the sorted key set.
func seed(st Store, n int) []string {
	keys := make([]string, 0, n)
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("result|v1|bench-%02d|setup-%d", i, i%3)
		st.Put(k, []byte(fmt.Sprintf("blob-%d", i)))
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sortedEqual(got, want []string) bool {
	if len(got) != len(want) {
		return false
	}
	g := append([]string(nil), got...)
	sort.Strings(g)
	for i := range g {
		if g[i] != want[i] {
			return false
		}
	}
	return true
}

// Every implementation enumerates exactly the stored key set, across
// page sizes including single-key pages and no-limit listings.
func TestKeysEnumerateEverything(t *testing.T) {
	disk, err := OpenDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	stores := map[string]Store{
		"memory": NewMemory(0),
		"disk":   disk,
		"tiered": NewTiered(NewMemory(0), NewMemory(0)),
	}
	for name, st := range stores {
		t.Run(name, func(t *testing.T) {
			want := seed(st, 23)
			for _, limit := range []int{0, 1, 5, 23, 100} {
				if got := walkKeys(t, st, limit); !sortedEqual(got, want) {
					t.Errorf("limit %d: walked %d keys, want %d (or key sets differ)",
						limit, len(got), len(want))
				}
			}
		})
	}
}

// A paged walk never yields a key twice: pages resume strictly after the
// cursor even when the page boundary falls mid-listing.
func TestKeysPagesDisjoint(t *testing.T) {
	m := NewMemory(0)
	seed(m, 17)
	seen := map[string]bool{}
	for _, k := range walkKeys(t, m, 4) {
		if seen[k] {
			t.Fatalf("key %q appeared in two pages", k)
		}
		seen[k] = true
	}
	if len(seen) != 17 {
		t.Fatalf("walk covered %d of 17 keys", len(seen))
	}
}

// The tiered listing is the slow tier's — the complete one: keys evicted
// from the fast tier still appear, and the fast tier's extras don't
// (writes land in both, so in practice slow is the superset).
func TestTieredKeysListSlowTier(t *testing.T) {
	fast, slow := NewMemory(0), NewMemory(0)
	ti := NewTiered(fast, slow)
	ti.Put("both", []byte("x"))
	slow.Put("slow-only", []byte("y")) // e.g. fast tier evicted it
	got := walkKeys(t, ti, 0)
	if !sortedEqual(got, []string{"both", "slow-only"}) {
		t.Errorf("tiered keys = %v", got)
	}
}

// Disk key listing recovers logical keys (not content addresses), skips
// corrupt records, and survives records deleted mid-walk.
func TestDiskKeysRecoverLogicalKeys(t *testing.T) {
	d, err := OpenDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	want := seed(d, 12)
	got := walkKeys(t, d, 5)
	if !sortedEqual(got, want) {
		t.Fatalf("disk walk = %v, want %v", got, want)
	}

	// Corrupt one record's header: the key disappears from the listing
	// (and is counted as an error), the rest keep enumerating.
	victim := want[3]
	if err := os.WriteFile(d.path(victim), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	got = walkKeys(t, d, 5)
	if len(got) != len(want)-1 {
		t.Errorf("walk after corruption = %d keys, want %d", len(got), len(want)-1)
	}
	for _, k := range got {
		if k == victim {
			t.Errorf("corrupt record's key %q still listed", victim)
		}
	}
	if d.Stats().Errors == 0 {
		t.Error("corrupt record not counted as a store error")
	}
}

// A canceled context aborts the walk instead of finishing it.
func TestKeysHonorContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := NewMemory(0)
	seed(m, 4)
	if _, _, err := m.Keys(ctx, 0, ""); err == nil {
		t.Error("memory walk ignored canceled context")
	}
	d, err := OpenDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	seed(d, 4)
	if _, _, err := d.Keys(ctx, 0, ""); err == nil {
		t.Error("disk walk ignored canceled context")
	}
}
