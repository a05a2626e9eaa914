package store

import (
	"container/list"
	"sync"
)

// Memory is an in-process blob store bounded by approximate payload bytes,
// evicting least-recently-used entries: one map, one LRU list and one
// mutex, so eviction follows a single global recency order over the whole
// budget. It is the fast tier of Tiered and a drop-in Store for tests and
// cache-less deployments.
type Memory struct {
	mu       sync.Mutex
	entries  map[string]*memEntry
	order    *list.List // LRU order, most recently used at back
	maxBytes int64

	bytes, highWater          int64
	hits, misses, puts, evict int64
}

type memEntry struct {
	key  string
	blob []byte
	elem *list.Element
}

// NewMemory builds a memory store holding at most maxBytes of payload;
// maxBytes <= 0 means unbounded.
func NewMemory(maxBytes int64) *Memory {
	return &Memory{entries: map[string]*memEntry{}, order: list.New(), maxBytes: maxBytes}
}

// Get implements Store.
func (m *Memory) Get(key string) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[key]
	if !ok {
		m.misses++
		return nil, false
	}
	m.hits++
	m.order.MoveToBack(e.elem)
	return e.blob, true
}

// Put implements Store.
func (m *Memory) Put(key string, blob []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.puts++
	if e, ok := m.entries[key]; ok {
		m.bytes += int64(len(blob)) - int64(len(e.blob))
		e.blob = blob
		m.order.MoveToBack(e.elem)
	} else {
		e := &memEntry{key: key, blob: blob}
		e.elem = m.order.PushBack(e)
		m.entries[key] = e
		m.bytes += int64(len(blob))
	}
	if m.bytes > m.highWater {
		m.highWater = m.bytes
	}
	for m.maxBytes > 0 && m.bytes > m.maxBytes && m.order.Len() > 1 {
		front := m.order.Front()
		victim := front.Value.(*memEntry)
		if victim.key == key {
			break // never evict the entry just written
		}
		m.order.Remove(front)
		delete(m.entries, victim.key)
		m.bytes -= int64(len(victim.blob))
		m.evict++
	}
}

// Stats implements Store.
func (m *Memory) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{
		Hits: m.hits, Misses: m.misses, Puts: m.puts, Evictions: m.evict,
		Entries: int64(len(m.entries)), Bytes: m.bytes, BytesHighWater: m.highWater,
	}
}
