package engine

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"clustersim/internal/partition"
	"clustersim/internal/pipeline"
	"clustersim/internal/prog"
	"clustersim/internal/workload"
)

// A panicking computation must unblock waiters and leave the key usable.
func TestFlightPanicDoesNotPoisonKey(t *testing.T) {
	c := newFlightCache[int](0)
	waited := make(chan int, 1)
	started := make(chan struct{})
	go func() {
		defer func() { recover() }()
		c.get(nil, "k", func() (int, bool) {
			close(started)
			time.Sleep(20 * time.Millisecond)
			panic("boom")
		})
	}()
	<-started
	go func() {
		v, _, _ := c.get(nil, "k", func() (int, bool) { return 42, true })
		waited <- v
	}()
	select {
	case v := <-waited:
		// The waiter either observed the zero value from the panicked
		// flight or recomputed; either way the key must not deadlock, and
		// a fresh get must recompute successfully.
		_ = v
	case <-time.After(10 * time.Second):
		t.Fatal("waiter deadlocked on a panicked flight")
	}
	v, cached, _ := c.get(nil, "k", func() (int, bool) { return 7, true })
	if cached && v != 7 && v != 42 {
		t.Fatalf("poisoned key: v=%d cached=%v", v, cached)
	}
}

// A waiter whose abort channel fires must return promptly, not wait for
// the in-flight computation.
func TestFlightAbortWhileWaiting(t *testing.T) {
	c := newFlightCache[int](0)
	release := make(chan struct{})
	started := make(chan struct{})
	go func() {
		c.get(nil, "k", func() (int, bool) {
			close(started)
			<-release
			return 1, true
		})
	}()
	<-started
	abort := make(chan struct{})
	close(abort)
	done := make(chan struct{})
	go func() {
		_, cached, aborted := c.get(abort, "k", func() (int, bool) { return 2, true })
		if cached || !aborted {
			t.Errorf("want aborted wait, got cached=%v aborted=%v", cached, aborted)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("aborted waiter did not return")
	}
	close(release)
}

// LRU eviction drops the oldest completed entries only.
func TestFlightLRUEviction(t *testing.T) {
	c := newFlightCache[int](2)
	c.get(nil, "a", func() (int, bool) { return 1, true })
	c.get(nil, "b", func() (int, bool) { return 2, true })
	c.get(nil, "a", func() (int, bool) { return -1, true }) // touch a
	c.get(nil, "c", func() (int, bool) { return 3, true })  // evicts b
	if _, cached, _ := c.get(nil, "a", func() (int, bool) { return -1, true }); !cached {
		t.Error("recently used entry evicted")
	}
	if _, cached, _ := c.get(nil, "b", func() (int, bool) { return -2, true }); cached {
		t.Error("least recently used entry survived past the cap")
	}
}

// The annotated-program cache is bounded by entry count: every distinct
// region size a client asks for is a new pass signature, and so a new key,
// yet the cache never holds more than maxPrograms of them, and a program
// evicted on the way re-annotates into a byte-identical clone.
func TestProgramCacheBounded(t *testing.T) {
	e := New(Options{Parallelism: 1})
	sp := workload.ByName("crafty")
	cfg := pipeline.DefaultConfig(2)
	setup := func(regionMaxOps int) Setup {
		return Setup{Label: "OB", NumClusters: 2, Pass: &Pass{
			Kind: "OB", NumTargets: 2, RegionMaxOps: regionMaxOps, Run: partition.AnnotateOB,
		}}
	}
	encode := func(p *prog.Program) []byte {
		blob, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	first := e.annotated(sp, setup(1), &cfg)
	want := encode(first)
	for rg := 2; rg <= maxPrograms+64; rg++ {
		e.annotated(sp, setup(rg), &cfg)
	}
	if n := len(e.progs.entries); n > maxPrograms {
		t.Fatalf("program cache holds %d entries, bound is %d", n, maxPrograms)
	}
	misses := e.progs.misses.Load()
	again := e.annotated(sp, setup(1), &cfg)
	if e.progs.misses.Load() != misses+1 || again == first {
		t.Fatal("least recently used program was not evicted")
	}
	if !bytes.Equal(encode(again), want) {
		t.Error("evicted program re-annotated differently")
	}
}
