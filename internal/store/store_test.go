package store

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

func TestMemoryBasicAndStats(t *testing.T) {
	m := NewMemory(0)
	if _, ok := m.Get("a"); ok {
		t.Fatal("empty store returned a hit")
	}
	m.Put("a", []byte("hello"))
	blob, ok := m.Get("a")
	if !ok || !bytes.Equal(blob, []byte("hello")) {
		t.Fatalf("Get = %q, %v", blob, ok)
	}
	st := m.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Entries != 1 || st.Bytes != 5 {
		t.Errorf("stats = %+v", st)
	}
}

func TestMemoryByteBoundedLRU(t *testing.T) {
	m := NewMemory(100)
	pay := make([]byte, 40)
	m.Put("a", pay)
	m.Put("b", pay)
	m.Get("a") // refresh a
	m.Put("c", pay)
	if _, ok := m.Get("b"); ok {
		t.Error("LRU victim b survived over budget")
	}
	if _, ok := m.Get("a"); !ok {
		t.Error("recently used entry a evicted")
	}
	if _, ok := m.Get("c"); !ok {
		t.Error("just-written entry c evicted")
	}
	st := m.Stats()
	if st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	if st.Bytes > 100 {
		t.Errorf("bytes = %d beyond bound", st.Bytes)
	}
	if st.BytesHighWater < 100 {
		t.Errorf("high water = %d, want >= 100", st.BytesHighWater)
	}
}

func TestMemoryOversizedEntryKept(t *testing.T) {
	// An entry larger than the whole budget is still stored (the cache
	// must remain useful), just alone.
	m := NewMemory(10)
	m.Put("big", make([]byte, 64))
	if _, ok := m.Get("big"); !ok {
		t.Error("oversized entry not retained")
	}
}

func TestTieredPromotesAndAggregates(t *testing.T) {
	fast, slow := NewMemory(0), NewMemory(0)
	ti := NewTiered(fast, slow)
	slow.Put("k", []byte("v")) // pre-seed the slow tier only
	if blob, ok := ti.Get("k"); !ok || string(blob) != "v" {
		t.Fatalf("tiered Get = %q, %v", blob, ok)
	}
	if _, ok := fast.Get("k"); !ok {
		t.Error("slow-tier hit not promoted to fast tier")
	}
	ti.Put("j", []byte("w"))
	if _, ok := fast.Get("j"); !ok {
		t.Error("Put missed fast tier")
	}
	if _, ok := slow.Get("j"); !ok {
		t.Error("Put missed slow tier")
	}
	f, s := ti.Layers()
	if f.Entries != 2 || s.Entries != 2 {
		t.Errorf("layers = %+v / %+v", f, s)
	}
	if total := ti.Stats(); total.Entries != 4 {
		t.Errorf("aggregate entries = %d, want 4", total.Entries)
	}
}

func TestAddrStable(t *testing.T) {
	if Addr("x") != Addr("x") {
		t.Error("Addr not deterministic")
	}
	if Addr("x") == Addr("y") {
		t.Error("Addr collided")
	}
	if len(Addr("x")) != 64 {
		t.Errorf("Addr length = %d, want 64 hex chars", len(Addr("x")))
	}
}

func TestMemoryConcurrent(t *testing.T) {
	m := NewMemory(1 << 20)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", i%17)
				m.Put(key, []byte(key))
				if blob, ok := m.Get(key); ok && string(blob) != key {
					t.Errorf("got %q for key %q", blob, key)
				}
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}

// TestTieredConcurrentMixed hammers a Tiered store with overlapping warm
// and cold keys; run under -race this guards promotion racing Puts.
func TestTieredConcurrentMixed(t *testing.T) {
	slow := NewMemory(0)
	for i := 0; i < 8; i++ {
		slow.Put(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i)))
	}
	ti := NewTiered(NewMemory(1<<16), slow)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				k := i % 10 // two of these are permanent misses
				want := fmt.Sprintf("v%d", k)
				blob, ok := ti.Get(fmt.Sprintf("k%d", k))
				if ok && string(blob) != want {
					t.Errorf("k%d = %q, want %q", k, blob, want)
				}
				if i%7 == 0 {
					ti.Put(fmt.Sprintf("k%d", k), []byte(want))
				}
			}
		}(g)
	}
	wg.Wait()
}
