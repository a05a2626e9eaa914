// Package store provides content-addressed blob stores for simulation
// artifacts. A Store maps logical string keys — the engine's content keys,
// which already encode everything that determines a result — to immutable
// byte blobs. Three implementations compose into the engine's caching
// hierarchy: Memory (one byte-bounded in-process LRU), Disk (atomic,
// corruption-tolerant, GC-bounded files so results outlive the process)
// and Tiered (memory over disk, the layout cmd/clusterd serves from).
// No store collapses concurrent reads of one key: the engine runs every
// result lookup inside its own per-key single flight, which is the one
// collapse on that path.
//
// Keys are versioned: every blob a store accepts carries the codec's
// schema-version header, and Disk additionally namespaces its files under
// a format-version directory, so stale cache directories written by an
// older schema are ignored — never misread.
package store

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
)

// Store is a content-addressed blob store. Implementations must be safe
// for concurrent use. Blobs are immutable after Put: callers must not
// mutate a slice handed to Put or returned by Get.
type Store interface {
	// Get returns the blob stored under key, or false if absent (or
	// unreadable — stores treat corruption as absence, never as data).
	Get(key string) ([]byte, bool)
	// Put stores blob under key. Re-putting an existing key is a no-op
	// for equal content; stores may overwrite otherwise. Put is
	// best-effort: a store that cannot persist (disk full, I/O error)
	// drops the blob and counts the error rather than failing the caller.
	Put(key string, blob []byte)
	// Keys returns one page of the stored logical keys in a stable
	// per-store order. limit caps the page size (<= 0 means no bound);
	// cursor is "" for the first page and the previous page's next value
	// afterwards. The returned next cursor is "" when the listing is
	// exhausted.
	Keys(ctx context.Context, limit int, cursor string) (keys []string, next string, err error)
	// Stats snapshots the store's counters.
	Stats() Stats
}

// Stats is a snapshot of a store's activity and occupancy.
type Stats struct {
	// Hits and Misses count Get outcomes.
	Hits, Misses int64
	// Puts counts blobs accepted (including overwrites).
	Puts int64
	// Evictions counts entries dropped by capacity bounds (GC).
	Evictions int64
	// Errors counts I/O failures and corrupt blobs discarded on read.
	Errors int64
	// Entries is the current number of stored blobs.
	Entries int64
	// Bytes is the current payload occupancy.
	Bytes int64
	// BytesHighWater is the maximum Bytes ever observed.
	BytesHighWater int64
}

// add accumulates other into s (for tiered aggregation).
func (s *Stats) add(other Stats) {
	s.Hits += other.Hits
	s.Misses += other.Misses
	s.Puts += other.Puts
	s.Evictions += other.Evictions
	s.Errors += other.Errors
	s.Entries += other.Entries
	s.Bytes += other.Bytes
	s.BytesHighWater += other.BytesHighWater
}

// Addr is the content address of a logical key: the hex SHA-256 of the key
// bytes. Disk uses it as the filename so arbitrary key characters never
// touch the filesystem, and exposes it so services can address results.
func Addr(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}
