package store

// Tiered composes a fast store over a slow one: reads check Fast first and
// promote Slow hits into Fast; writes land in both. The canonical layout
// is Memory over Disk — recent results served from RAM, everything
// surviving restarts on disk.
//
// Cold reads of one key are not collapsed here: the engine calls Get from
// inside its per-key single flight, so concurrent engine lookups of a key
// already share one slow-tier read.
type Tiered struct {
	Fast, Slow Store
}

// NewTiered builds the composition.
func NewTiered(fast, slow Store) *Tiered { return &Tiered{Fast: fast, Slow: slow} }

// Get implements Store: the fast tier, else the slow tier plus promotion.
func (t *Tiered) Get(key string) ([]byte, bool) {
	if blob, ok := t.Fast.Get(key); ok {
		return blob, true
	}
	blob, ok := t.Slow.Get(key)
	if ok {
		t.Fast.Put(key, blob)
	}
	return blob, ok
}

// Put implements Store.
func (t *Tiered) Put(key string, blob []byte) {
	t.Fast.Put(key, blob)
	t.Slow.Put(key, blob)
}

// Stats implements Store: the sum over both layers. Use Layers for the
// per-tier breakdown.
func (t *Tiered) Stats() Stats {
	s := t.Fast.Stats()
	s.add(t.Slow.Stats())
	return s
}

// Layers returns the per-tier snapshots (fast, slow).
func (t *Tiered) Layers() (fast, slow Stats) {
	return t.Fast.Stats(), t.Slow.Stats()
}
