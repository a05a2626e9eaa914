package store

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func TestDiskRoundTripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	d.Put("result|v1|abc", []byte("payload"))
	if blob, ok := d.Get("result|v1|abc"); !ok || !bytes.Equal(blob, []byte("payload")) {
		t.Fatalf("Get = %q, %v", blob, ok)
	}

	// A second store over the same directory (a new process) sees the blob.
	d2, err := OpenDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if blob, ok := d2.Get("result|v1|abc"); !ok || !bytes.Equal(blob, []byte("payload")) {
		t.Fatalf("reopened Get = %q, %v", blob, ok)
	}
	if st := d2.Stats(); st.Entries != 1 || st.Bytes == 0 {
		t.Errorf("reopened stats = %+v", st)
	}
}

// Put overwrites an existing record: a slot holding a blob that passes
// the CRC framing but is garbage to a higher layer must heal when the
// caller recomputes and re-Puts.
func TestDiskPutOverwrites(t *testing.T) {
	d, err := OpenDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	d.Put("k", []byte("stale payload"))
	d.Put("k", []byte("fresh"))
	blob, ok := d.Get("k")
	if !ok || !bytes.Equal(blob, []byte("fresh")) {
		t.Fatalf("Get after overwrite = %q, %v", blob, ok)
	}
	st := d.Stats()
	if st.Entries != 1 {
		t.Errorf("entries = %d, want 1", st.Entries)
	}
	// Occupancy reflects the replacement, not the sum of both writes.
	if reopened, err := OpenDisk(t.TempDir(), 0); err == nil {
		reopened.Put("k", []byte("fresh"))
		if want := reopened.Stats().Bytes; st.Bytes != want {
			t.Errorf("bytes = %d after overwrite, want %d", st.Bytes, want)
		}
	}
}

func TestDiskMissAndKeyIsolation(t *testing.T) {
	d, err := OpenDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Get("absent"); ok {
		t.Error("hit for absent key")
	}
	d.Put("a", []byte("1"))
	if _, ok := d.Get("b"); ok {
		t.Error("key b served key a's blob")
	}
}

func TestDiskCorruptionToleratedAsMiss(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	d.Put("k", []byte("good payload"))
	path := d.path("k")

	for name, mutate := range map[string]func([]byte) []byte{
		"truncated":    func(b []byte) []byte { return b[:len(b)/2] },
		"bit-flip":     func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b },
		"empty":        func(b []byte) []byte { return nil },
		"wrong-magic":  func(b []byte) []byte { b[0] ^= 0xff; return b },
		"wrong-format": func(b []byte) []byte { b[4] ^= 0xff; return b },
	} {
		d.Put("k", []byte("good payload")) // restore
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, mutate(append([]byte(nil), data...)), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := d.Get("k"); ok {
			t.Errorf("%s: corrupt record served as data", name)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("%s: corrupt record not removed", name)
		}
	}
	if st := d.Stats(); st.Errors == 0 {
		t.Error("corruption not counted in Errors")
	}
}

func TestDiskGCBoundsBytes(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, 2048)
	if err != nil {
		t.Fatal(err)
	}
	pay := make([]byte, 400)
	for i := 0; i < 10; i++ {
		d.Put(string(rune('a'+i)), pay)
		// Distinct mtimes so GC age ordering is deterministic.
		os.Chtimes(d.path(string(rune('a'+i))), time.Time{}, time.Now().Add(time.Duration(i)*time.Second))
	}
	st := d.Stats()
	if st.Bytes > 2048 {
		t.Errorf("occupancy %d exceeds 2048 budget", st.Bytes)
	}
	if st.Evictions == 0 {
		t.Error("GC never ran")
	}
	// The newest entry must have survived.
	if _, ok := d.Get("j"); !ok {
		t.Error("newest record collected")
	}
}

func TestDiskIgnoresForeignSchemaDir(t *testing.T) {
	dir := t.TempDir()
	// A "stale" cache written under a different format version.
	stale := filepath.Join(dir, "v999", "ab")
	if err := os.MkdirAll(stale, 0o755); err != nil {
		t.Fatal(err)
	}
	os.WriteFile(filepath.Join(stale, "abcd.blob"), []byte("old format"), 0o644)

	d, err := OpenDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.Entries != 0 {
		t.Errorf("foreign schema dir counted: %+v", st)
	}
	if _, ok := d.Get("anything"); ok {
		t.Error("foreign schema dir served data")
	}
}

// A record in the gzip format an older compressing store wrote (format
// 2) is foreign to this store: Get reports a miss, counts the error and
// removes the file, and the next Put stores the blob raw in its place.
func TestDiskLegacyFormatReadsAsMiss(t *testing.T) {
	dir := t.TempDir()
	blob := bytes.Repeat([]byte("steering-result-row "), 50)
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(blob)
	zw.Close()
	// The old framing with the gzip format tag; the CRC covers the stored
	// (compressed) payload, as the old writer computed it.
	key := "k"
	rec := buildRecord(key, gz.Bytes())
	binary.LittleEndian.PutUint32(rec[4:], 2)
	addr := Addr(key)
	path := filepath.Join(dir, "v1", addr[:2], addr+".blob")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, rec, 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDisk(dir, 0) // a store reopened over an older cache
	if err != nil {
		t.Fatal(err)
	}

	if _, ok := d.Get(key); ok {
		t.Fatal("format-2 record served as data")
	}
	if st := d.Stats(); st.Errors != 1 {
		t.Errorf("errors = %d, want 1", st.Errors)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("format-2 record not removed: %v", err)
	}
	d.Put(key, blob)
	if got, ok := d.Get(key); !ok || !bytes.Equal(got, blob) {
		t.Errorf("after re-Put: Get = %v", ok)
	}
	if st := d.Stats(); st.Entries != 1 {
		t.Errorf("entries = %d, want 1", st.Entries)
	}
}

func TestDiskScanClearsTempFiles(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(d.Dir(), "ab")
	os.MkdirAll(tmp, 0o755)
	leftover := filepath.Join(tmp, ".tmp-12345")
	os.WriteFile(leftover, []byte("partial"), 0o644)
	if _, err := OpenDisk(dir, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(leftover); !os.IsNotExist(err) {
		t.Error("interrupted temp file not cleared on open")
	}
}

// TestDiskParallelGetPutGC hammers one disk-store key with concurrent
// readers, writers and GC pressure (filler keys over a tiny budget force
// collections mid-traffic). Readers must only ever observe a miss or the
// exact current payload — never torn or foreign bytes.
func TestDiskParallelGetPutGC(t *testing.T) {
	d, err := OpenDisk(t.TempDir(), 4<<10)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("hot-key-payload "), 16)
	d.Put("hot", payload)

	var readers, writers sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if blob, ok := d.Get("hot"); ok && !bytes.Equal(blob, payload) {
					t.Errorf("hot key corrupted: %d bytes", len(blob))
					return
				}
			}
		}()
	}
	for g := 0; g < 2; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < 50; i++ {
				d.Put("hot", payload)
				// Filler churn overflows the 4 KiB budget and drives gc
				// concurrently with the hot-key traffic.
				d.Put(fmt.Sprintf("filler-%d-%d", g, i), bytes.Repeat([]byte{byte(i)}, 512))
			}
		}(g)
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	st := d.Stats()
	if st.Evictions == 0 {
		t.Error("filler churn never triggered GC — test exercised nothing")
	}
	if st.Errors != 0 {
		t.Errorf("store reported %d errors under parallel traffic", st.Errors)
	}
}
