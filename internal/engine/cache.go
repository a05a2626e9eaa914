package engine

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// flightCache is a content-keyed cache with single-flight semantics: the
// first caller of a key computes the value while concurrent callers of the
// same key block until the computation lands, so an artifact is never built
// twice. Completed entries are bounded by count and evicted
// least-recently-used; in-flight entries are never evicted. maxEntries <= 0
// means unbounded.
type flightCache[V any] struct {
	mu         sync.Mutex
	entries    map[string]*flightEntry[V]
	order      *list.List // completed keys, most recently used at back
	maxEntries int

	hits, misses atomic.Int64
}

type flightEntry[V any] struct {
	done chan struct{}
	val  V
	keep bool
	elem *list.Element
}

func newFlightCache[V any](maxEntries int) *flightCache[V] {
	return &flightCache[V]{
		entries:    map[string]*flightEntry[V]{},
		order:      list.New(),
		maxEntries: maxEntries,
	}
}

// get returns the value for key, computing it via fn on first use. The
// first boolean reports whether the value came from the cache (or from
// another caller's in-flight computation); the second reports that the
// wait was abandoned because abort fired first (the value is the zero V).
// A nil abort channel waits indefinitely. fn's second result reports
// whether the value should be retained — failed computations return false
// so they are retried on the next request; concurrent waiters of the same
// flight still receive the non-retained value. A panic in fn removes the
// in-flight entry and unblocks waiters before propagating, so the key is
// never poisoned.
func (c *flightCache[V]) get(abort <-chan struct{}, key string, fn func() (V, bool)) (val V, cached, aborted bool) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.mu.Unlock()
		select {
		case <-e.done:
		case <-abort:
			return val, false, true
		}
		if e.keep {
			// Joins of discarded flights (failed, canceled or panicked)
			// don't count as hits — the caller will recompute.
			c.hits.Add(1)
			c.touch(key, e)
		}
		return e.val, true, false
	}
	e := &flightEntry[V]{done: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()
	c.misses.Add(1)

	defer func() {
		c.mu.Lock()
		if !e.keep {
			delete(c.entries, key)
		} else {
			e.elem = c.order.PushBack(key)
			// One publish adds one entry, so evicting the oldest completed
			// one restores the bound; the entry just published, at the
			// back, always survives.
			if c.maxEntries > 0 && c.order.Len() > c.maxEntries {
				delete(c.entries, c.order.Remove(c.order.Front()).(string))
			}
		}
		c.mu.Unlock()
		close(e.done)
	}()
	e.val, e.keep = fn()
	return e.val, false, false
}

// touch refreshes key's LRU position if it is still the cached entry.
func (c *flightCache[V]) touch(key string, e *flightEntry[V]) {
	c.mu.Lock()
	if cur, ok := c.entries[key]; ok && cur == e && e.elem != nil {
		c.order.MoveToBack(e.elem)
	}
	c.mu.Unlock()
}
