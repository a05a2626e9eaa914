// Package cache implements the memory substrate: set-associative caches
// with LRU replacement and port limits, a two-level hierarchy with MSHRs,
// and the unified load/store queue with store-to-load forwarding that the
// paper's clustered backend shares across clusters.
package cache

import (
	"fmt"
	"math/bits"
)

// Config describes one cache level.
type Config struct {
	// SizeBytes is the total capacity.
	SizeBytes int
	// LineBytes is the line size (power of two).
	LineBytes int
	// Assoc is the set associativity.
	Assoc int
	// HitLatency is the access latency in cycles on a hit.
	HitLatency int
	// ReadPorts and WritePorts bound same-cycle accesses; zero means
	// unlimited.
	ReadPorts, WritePorts int
}

// Validate checks the geometry.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Assoc <= 0 {
		return fmt.Errorf("cache: non-positive geometry %+v", c)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache: line size %d not a power of two", c.LineBytes)
	}
	sets := c.SizeBytes / (c.LineBytes * c.Assoc)
	if sets <= 0 || sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a positive power of two", sets)
	}
	return nil
}

// Stats accumulates cache event counts.
type Stats struct {
	Hits, Misses, Evictions uint64
}

// Accesses returns hits + misses.
func (s Stats) Accesses() uint64 { return s.Hits + s.Misses }

// Cache is a set-associative cache with true-LRU replacement. It models
// contents only (hit/miss); timing lives in Hierarchy.
type Cache struct {
	cfg Config
	// tags and stamps are the ways of every set, set by set: set s owns
	// indices [s*Assoc, (s+1)*Assoc). A tag slot holds the line's tag
	// plus one, so 0 marks an invalid way; a stamp orders valid ways for
	// LRU, larger being more recent. Fills take the first invalid way, so
	// a set's valid ways are always a prefix of it.
	tags, stamps []uint64
	// An address's line number is addr>>setShift; its set is the line
	// number's low bits (setMask) and its tag the bits above (tagShift).
	setShift, tagShift uint
	setMask            uint64
	useClock           uint64
	stats              Stats

	// per-cycle port accounting
	portCycle  int64
	readsUsed  int
	writesUsed int
}

// New builds a cache from a validated config.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nsets := cfg.SizeBytes / (cfg.LineBytes * cfg.Assoc)
	return &Cache{
		cfg:      cfg,
		tags:     make([]uint64, nsets*cfg.Assoc),
		stamps:   make([]uint64, nsets*cfg.Assoc),
		setShift: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		tagShift: uint(bits.TrailingZeros(uint(nsets))),
		setMask:  uint64(nsets - 1),
	}, nil
}

// MustNew builds a cache, panicking on config errors. For tests.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// indexTag returns the index of addr's set's first way and the tag slot
// value (tag plus one) that marks addr's line.
func (c *Cache) indexTag(addr uint64) (int, uint64) {
	lineNum := addr >> c.setShift
	return int(lineNum&c.setMask) * c.cfg.Assoc, lineNum>>c.tagShift + 1
}

// ReservePort claims a read or write port for the given cycle. It reports
// whether a port was available; failed reservations consume nothing.
func (c *Cache) ReservePort(cycle int64, write bool) bool {
	if cycle != c.portCycle {
		c.portCycle = cycle
		c.readsUsed, c.writesUsed = 0, 0
	}
	if write {
		if c.cfg.WritePorts > 0 && c.writesUsed >= c.cfg.WritePorts {
			return false
		}
		c.writesUsed++
		return true
	}
	if c.cfg.ReadPorts > 0 && c.readsUsed >= c.cfg.ReadPorts {
		return false
	}
	c.readsUsed++
	return true
}

// Lookup probes for addr without filling. Touches LRU on hit.
func (c *Cache) Lookup(addr uint64) bool {
	base, tag := c.indexTag(addr)
	for i, t := range c.tags[base : base+c.cfg.Assoc] {
		if t == tag {
			c.useClock++
			c.stamps[base+i] = c.useClock
			c.stats.Hits++
			return true
		}
	}
	c.stats.Misses++
	return false
}

// Contains probes for addr without touching statistics or LRU state
// (internal probes such as prefetch filtering).
func (c *Cache) Contains(addr uint64) bool {
	base, tag := c.indexTag(addr)
	for _, t := range c.tags[base : base+c.cfg.Assoc] {
		if t == tag {
			return true
		}
	}
	return false
}

// Fill inserts the line holding addr, evicting the LRU way if needed.
// Returns whether an eviction of a valid line occurred.
func (c *Cache) Fill(addr uint64) bool {
	base, tag := c.indexTag(addr)
	tags := c.tags[base : base+c.cfg.Assoc]
	stamps := c.stamps[base : base+c.cfg.Assoc]
	victim := 0
	for i, t := range tags {
		if t == tag {
			// Already present (MSHR race); refresh LRU only.
			c.useClock++
			stamps[i] = c.useClock
			return false
		}
		if t == 0 {
			victim = i
			break
		}
		if stamps[i] < stamps[victim] {
			victim = i
		}
	}
	evicted := tags[victim] != 0
	if evicted {
		c.stats.Evictions++
	}
	c.useClock++
	tags[victim], stamps[victim] = tag, c.useClock
	return evicted
}

// LineAddr returns the line-aligned address of addr.
func (c *Cache) LineAddr(addr uint64) uint64 {
	return addr &^ (uint64(c.cfg.LineBytes) - 1)
}

// Reset restores post-construction state (between runs) without
// reallocating: the tag and stamp arrays are zeroed in place.
func (c *Cache) Reset() {
	clear(c.tags)
	clear(c.stamps)
	c.useClock = 0
	c.stats = Stats{}
	c.portCycle = 0
	c.readsUsed, c.writesUsed = 0, 0
}
