// Key enumeration: the store-side substrate of the fleet control plane.
// A planned drain lists the departing worker's keys to migrate them to
// its ring successors, and a scale-up backfill lists the previous
// owners' keys to find the ranges a newcomer stole — neither knows what
// was ever submitted, so the store itself must be able to say what it
// holds. The listing is paged (a disk store can hold millions of
// records) behind an opaque cursor, in a stable per-store order, so a
// caller can resume where it left off even while writes land in
// between: keys written after a page was served may or may not appear
// in later pages, keys present for the whole walk appear exactly once.
package store

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// page slices one page out of a sorted key list: the keys strictly after
// cursor, at most limit of them, plus the cursor for the next page.
func page(sorted []string, limit int, cursor string) ([]string, string) {
	start := 0
	if cursor != "" {
		start = sort.SearchStrings(sorted, cursor)
		if start < len(sorted) && sorted[start] == cursor {
			start++ // resume strictly after the cursor key
		}
	}
	rest := sorted[start:]
	if limit > 0 && len(rest) > limit {
		return rest[:limit], rest[limit-1]
	}
	return rest, ""
}

// Keys implements Store. The order is lexicographic over the logical
// keys; the cursor is the last key of the previous page. Each page
// snapshots the store's contents at call time, so a walk is linearizable
// per page, not across pages — the documented contract.
func (m *Memory) Keys(ctx context.Context, limit int, cursor string) ([]string, string, error) {
	if err := ctx.Err(); err != nil {
		return nil, "", err
	}
	m.mu.Lock()
	all := make([]string, 0, len(m.entries))
	for k := range m.entries {
		all = append(all, k)
	}
	m.mu.Unlock()
	sort.Strings(all)
	keys, next := page(all, limit, cursor)
	return keys, next, nil
}

// Keys implements Store. The order is lexicographic over the keys'
// content addresses (the on-disk filenames), so the walk never has to
// load more than one page of records: the cursor is the last returned
// key's address, and each page re-walks only the directory listing —
// cheap — plus one header read per returned key to recover the logical
// key stored inside the record. Records that fail their framing checks
// are skipped (and counted as errors), never surfaced.
func (d *Disk) Keys(ctx context.Context, limit int, cursor string) ([]string, string, error) {
	var addrs []string
	subdirs, err := os.ReadDir(d.root)
	if err != nil {
		return nil, "", err
	}
	sort.Slice(subdirs, func(i, j int) bool { return subdirs[i].Name() < subdirs[j].Name() })
	for _, sub := range subdirs {
		if !sub.IsDir() {
			continue
		}
		// A whole subdirectory at or before the cursor's prefix may still
		// hold addresses after the cursor, so filter per file below.
		if cursor != "" && sub.Name() < cursor[:min(2, len(cursor))] {
			continue
		}
		files, err := os.ReadDir(filepath.Join(d.root, sub.Name()))
		if err != nil {
			continue
		}
		for _, f := range files {
			if filepath.Ext(f.Name()) != ".blob" {
				continue
			}
			addr := f.Name()[:len(f.Name())-len(".blob")]
			if cursor != "" && addr <= cursor {
				continue
			}
			addrs = append(addrs, addr)
		}
	}
	sort.Strings(addrs)
	if limit > 0 && len(addrs) > limit {
		addrs = addrs[:limit]
	}
	var keys []string
	next := ""
	for _, addr := range addrs {
		if err := ctx.Err(); err != nil {
			return nil, "", err
		}
		next = addr
		key, err := readRecordKey(filepath.Join(d.root, addr[:2], addr+".blob"))
		if err != nil {
			if !os.IsNotExist(err) {
				d.errs.Add(1) // corrupt header; Get will heal the slot
			}
			continue // deleted or unreadable mid-walk: skip, keep paging
		}
		keys = append(keys, key)
	}
	if limit <= 0 || len(addrs) < limit {
		next = "" // this page reached the end of the address space
	}
	return keys, next, nil
}

// readRecordKey recovers the logical key from a record file by reading
// only its fixed header and key bytes — never the payload.
func readRecordKey(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	var hdr [20]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return "", errors.New("store: truncated record header")
	}
	if m := le32(hdr[0:]); m != diskMagic {
		return "", errors.New("store: bad magic")
	}
	keyLen := int(le32(hdr[8:]))
	if keyLen <= 0 || keyLen > 1<<20 {
		return "", errors.New("store: implausible key length")
	}
	key := make([]byte, keyLen)
	if _, err := io.ReadFull(f, key); err != nil {
		return "", errors.New("store: truncated record key")
	}
	return string(key), nil
}

// le32 reads a little-endian uint32 (binary.LittleEndian without the
// interface indirection in a per-record hot path).
func le32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// Keys implements Store by enumerating the slow tier — the complete,
// persistent one (every Put lands in both tiers, but the fast tier
// evicts under its byte budget, so only the slow tier can answer "what
// do I hold" exhaustively).
func (t *Tiered) Keys(ctx context.Context, limit int, cursor string) ([]string, string, error) {
	return t.Slow.Keys(ctx, limit, cursor)
}
