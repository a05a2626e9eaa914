package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
)

// diskFormat is the on-disk directory layout version. It names the
// version directory (v1/...) so a directory written by a different
// layout is simply invisible to this store — stale schemas are ignored,
// not misread.
const diskFormat = 1

// recordFormat is the record encoding carried in each header's format
// field: the payload stored verbatim. A record of any other format (such
// as the gzip format 2 an older store could write) is foreign: Get
// discards it and reports a miss, so the caller recomputes and re-Puts.
const recordFormat = 1

// diskMagic brands every record file.
const diskMagic = 0x43535354 // "CSST"

// Disk is a persistent blob store: one file per key under a
// format-versioned directory, addressed by the key's SHA-256. Writes are
// atomic (temp file + rename into place), reads are corruption-tolerant
// (a record failing its magic, version, key or CRC check is discarded and
// reported as a miss), and occupancy is GC-bounded: when payload bytes
// exceed the configured budget, the oldest files are removed first.
type Disk struct {
	root     string // <dir>/v<diskFormat>
	maxBytes int64

	mu      sync.Mutex // serializes occupancy bookkeeping and GC
	bytes   int64
	entries int64

	hits, misses, puts, evict, errs atomic.Int64
	highWater                       atomic.Int64
}

// OpenDisk opens (creating if needed) a disk store rooted at dir, bounded
// to maxBytes of record payload; maxBytes <= 0 means unbounded. Existing
// records from a previous process are reused.
func OpenDisk(dir string, maxBytes int64) (*Disk, error) {
	d := &Disk{
		root:     filepath.Join(dir, fmt.Sprintf("v%d", diskFormat)),
		maxBytes: maxBytes,
	}
	if err := os.MkdirAll(d.root, 0o755); err != nil {
		return nil, fmt.Errorf("store: opening %s: %w", dir, err)
	}
	d.bytes, d.entries = d.scan()
	d.highWater.Store(d.bytes)
	return d, nil
}

// Dir returns the store's version-root directory.
func (d *Disk) Dir() string { return d.root }

// path maps a logical key to its record file.
func (d *Disk) path(key string) string {
	addr := Addr(key)
	return filepath.Join(d.root, addr[:2], addr+".blob")
}

// Get implements Store.
func (d *Disk) Get(key string) ([]byte, bool) {
	data, err := os.ReadFile(d.path(key))
	if err != nil {
		d.misses.Add(1)
		return nil, false
	}
	blob, err := parseRecord(data, key)
	if err != nil {
		// Corrupt or foreign record: drop it so the slot heals, and
		// report a miss — the caller recomputes and re-Puts.
		d.errs.Add(1)
		d.misses.Add(1)
		d.remove(d.path(key))
		return nil, false
	}
	d.hits.Add(1)
	return blob, true
}

// Put implements Store. An existing record for the key is overwritten:
// keys encode everything that determines the blob, so in the common case
// this only happens when racing writers store identical content — but it
// also heals a slot whose record passes the CRC framing yet fails a
// higher-level decode (the engine re-simulates and re-Puts).
func (d *Disk) Put(key string, blob []byte) {
	d.puts.Add(1)
	path := d.path(key)
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		d.errs.Add(1)
		return
	}
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		d.errs.Add(1)
		return
	}
	rec := buildRecord(key, blob)
	_, werr := tmp.Write(rec)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		d.errs.Add(1)
		return
	}
	// Rename and occupancy bookkeeping happen under the occupancy mutex:
	// gc holds it across its whole walk, so a record can never become
	// visible to a walk while its accounting is still pending (which
	// would double-count it once gc rewrites d.bytes from the walk).
	d.mu.Lock()
	prev := int64(0)
	replaced := false
	if info, err := os.Stat(path); err == nil {
		prev = info.Size()
		replaced = true
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		d.mu.Unlock()
		os.Remove(tmp.Name())
		d.errs.Add(1)
		return
	}
	d.bytes += int64(len(rec)) - prev
	if !replaced {
		d.entries++
	}
	bytes := d.bytes
	over := d.maxBytes > 0 && d.bytes > d.maxBytes
	d.mu.Unlock()
	for {
		hw := d.highWater.Load()
		if bytes <= hw || d.highWater.CompareAndSwap(hw, bytes) {
			break
		}
	}
	if over {
		d.gc(path)
	}
}

// Stats implements Store.
func (d *Disk) Stats() Stats {
	d.mu.Lock()
	bytes, entries := d.bytes, d.entries
	d.mu.Unlock()
	return Stats{
		Hits: d.hits.Load(), Misses: d.misses.Load(), Puts: d.puts.Load(),
		Evictions: d.evict.Load(), Errors: d.errs.Load(),
		Entries: entries, Bytes: bytes, BytesHighWater: d.highWater.Load(),
	}
}

// remove deletes a record file and adjusts occupancy. The whole operation
// holds the occupancy mutex so a concurrent gc walk and this deletion
// cannot each account for the same file.
func (d *Disk) remove(path string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	info, err := os.Stat(path)
	if err != nil {
		return
	}
	if os.Remove(path) == nil {
		d.bytes -= info.Size()
		d.entries--
	}
}

// scan walks the version root, totalling record files (and clearing
// leftover temp files from an interrupted writer).
func (d *Disk) scan() (bytes, entries int64) {
	_ = filepath.WalkDir(d.root, func(path string, ent fs.DirEntry, err error) error {
		if err != nil || ent.IsDir() {
			return nil
		}
		if filepath.Ext(path) != ".blob" {
			os.Remove(path) // orphaned temp file
			return nil
		}
		if info, err := ent.Info(); err == nil {
			bytes += info.Size()
			entries++
		}
		return nil
	})
	return bytes, entries
}

// gc removes oldest records (by modification time) until occupancy is
// back under 90% of the budget. Collecting to a low-water mark rather
// than the bound itself amortizes the full-store walk: at steady state
// each gc frees at least 10% of the budget before the next one can
// trigger, instead of walking the whole store on every over-budget Put.
// keep is the just-written record, never collected.
func (d *Disk) gc(keep string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	target := d.maxBytes / 10 * 9
	type rec struct {
		path  string
		size  int64
		mtime int64
	}
	var recs []rec
	var total int64
	_ = filepath.WalkDir(d.root, func(path string, ent fs.DirEntry, err error) error {
		if err != nil || ent.IsDir() || filepath.Ext(path) != ".blob" {
			return nil
		}
		info, err := ent.Info()
		if err != nil {
			return nil
		}
		recs = append(recs, rec{path, info.Size(), info.ModTime().UnixNano()})
		total += info.Size()
		return nil
	})
	sort.Slice(recs, func(i, j int) bool { return recs[i].mtime < recs[j].mtime })
	remaining := int64(len(recs))
	for _, r := range recs {
		if total <= target {
			break
		}
		if r.path == keep {
			continue
		}
		if os.Remove(r.path) == nil {
			total -= r.size
			remaining--
			d.evict.Add(1)
		}
	}
	d.bytes = total
	d.entries = remaining
}

// buildRecord frames a blob: magic, record format, key (for verification
// against hash collisions and foreign files), CRC32 of the payload,
// payload.
func buildRecord(key string, blob []byte) []byte {
	rec := make([]byte, 20, 20+len(key)+len(blob))
	le := binary.LittleEndian
	le.PutUint32(rec[0:], diskMagic)
	le.PutUint32(rec[4:], recordFormat)
	le.PutUint32(rec[8:], uint32(len(key)))
	le.PutUint32(rec[12:], crc32.ChecksumIEEE(blob))
	le.PutUint32(rec[16:], uint32(len(blob)))
	rec = append(rec, key...)
	return append(rec, blob...)
}

// parseRecord validates a record file and returns its payload.
func parseRecord(data []byte, key string) ([]byte, error) {
	le := binary.LittleEndian
	if len(data) < 20 {
		return nil, fmt.Errorf("store: truncated record header (%d bytes)", len(data))
	}
	if m := le.Uint32(data[0:]); m != diskMagic {
		return nil, fmt.Errorf("store: bad magic %#x", m)
	}
	if f := le.Uint32(data[4:]); f != recordFormat {
		return nil, fmt.Errorf("store: record format %d, want %d", f, recordFormat)
	}
	keyLen := int(le.Uint32(data[8:]))
	crc := le.Uint32(data[12:])
	blobLen := int(le.Uint32(data[16:]))
	if keyLen < 0 || blobLen < 0 || len(data) != 20+keyLen+blobLen {
		return nil, fmt.Errorf("store: record length mismatch")
	}
	if string(data[20:20+keyLen]) != key {
		return nil, fmt.Errorf("store: record holds a different key")
	}
	blob := data[20+keyLen:]
	if crc32.ChecksumIEEE(blob) != crc {
		return nil, fmt.Errorf("store: payload CRC mismatch")
	}
	return blob, nil
}
