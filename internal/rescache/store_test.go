package rescache

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestDiskStoreRoundTripAndRestart(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := KeyOf("fp", "hello")
	d.Put(key, []byte("artifact-bytes"))
	if got, ok := d.Get(key); !ok || string(got) != "artifact-bytes" {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the index replays and the blob is still served.
	d2, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if got, ok := d2.Get(key); !ok || string(got) != "artifact-bytes" {
		t.Fatalf("after reopen: Get = %q, %v", got, ok)
	}
	if st := d2.Stats(); st.Entries != 1 {
		t.Fatalf("after reopen: entries = %d, want 1", st.Entries)
	}
}

func TestDiskStoreConcurrentPutGet(t *testing.T) {
	d, err := OpenDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				key := KeyOf("k", fmt.Sprint(i%5))
				blob := []byte(fmt.Sprintf("blob-%d", i%5))
				d.Put(key, blob)
				if got, ok := d.Get(key); ok && string(got) != string(blob) {
					t.Errorf("goroutine %d: got %q want %q", g, got, blob)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCacheStoreTier checks the layered Do path: a fresh cache sharing a
// store with a previous one serves the entry without recomputing.
func TestCacheStoreTier(t *testing.T) {
	codec := Codec{
		Encode: func(v any) ([]byte, error) { return json.Marshal(v) },
		Decode: func(b []byte) (any, error) {
			var s string
			err := json.Unmarshal(b, &s)
			return s, err
		},
	}
	store, err := OpenDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	key := KeyOf("fp", "k")

	c1 := New(8)
	c1.AttachStore(store, codec)
	computes := 0
	fn := func() (any, error) { computes++; return "value", nil }
	if v, hit, _ := c1.Do(key, fn); hit || v != "value" {
		t.Fatalf("first Do: v=%v hit=%v", v, hit)
	}
	if st := store.Stats(); st.Puts != 1 {
		t.Fatalf("store puts = %d, want 1", st.Puts)
	}

	// A second cache (fresh process) over the same store: store hit, no
	// compute.
	c2 := New(8)
	c2.AttachStore(store, codec)
	v, hit, err := c2.Do(key, fn)
	if err != nil || !hit || v != "value" {
		t.Fatalf("second cache Do: v=%v hit=%v err=%v", v, hit, err)
	}
	if computes != 1 {
		t.Fatalf("computes = %d, want 1", computes)
	}
	if st := c2.Stats(); st.StoreHits != 1 {
		t.Fatalf("cache store hits = %d, want 1 (%+v)", st.StoreHits, st)
	}
}

// TestCacheStoreDecodeFailureRecomputes ensures a corrupt blob falls
// through to the computation instead of failing the lookup.
func TestCacheStoreDecodeFailureRecomputes(t *testing.T) {
	store, err := OpenDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	key := KeyOf("fp", "k")
	store.Put(key, []byte("not json"))
	c := New(8)
	c.AttachStore(store, Codec{
		Encode: func(v any) ([]byte, error) { return json.Marshal(v) },
		Decode: func(b []byte) (any, error) {
			var s string
			err := json.Unmarshal(b, &s)
			return s, err
		},
	})
	v, hit, err := c.Do(key, func() (any, error) { return "fresh", nil })
	if err != nil || hit || v != "fresh" {
		t.Fatalf("Do over corrupt blob: v=%v hit=%v err=%v", v, hit, err)
	}
}

// Crash-consistency suite: a kill mid-write must never let the index serve
// a torn artifact after reopen.

// TestDiskStoreTornObjectNotServed simulates a crash that corrupts an
// object file after its index line landed: Get must verify and miss, and
// the entry must be forgotten rather than served.
func TestDiskStoreTornObjectNotServed(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := KeyOf("fp", "torn")
	d.Put(key, []byte("full-artifact-content"))
	d.Close()

	// Tear the object file (truncate mid-blob, as a crash or partial disk
	// write would).
	obj := filepath.Join(dir, "objects", string(key[:2]), string(key))
	if err := os.Truncate(obj, 4); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if blob, ok := d2.Get(key); ok {
		t.Fatalf("torn artifact served: %q", blob)
	}
	// The entry is dropped; a fresh Put re-establishes it durably.
	d2.Put(key, []byte("full-artifact-content"))
	if got, ok := d2.Get(key); !ok || string(got) != "full-artifact-content" {
		t.Fatalf("re-put after tear: %q, %v", got, ok)
	}
}

// TestDiskStoreCorruptObjectNotServed flips bytes without changing the
// length: only the checksum catches it.
func TestDiskStoreCorruptObjectNotServed(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	key := KeyOf("fp", "flip")
	d.Put(key, []byte("abcdefgh"))
	obj := filepath.Join(dir, "objects", string(key[:2]), string(key))
	if err := os.WriteFile(obj, []byte("abcdXfgh"), 0o644); err != nil {
		t.Fatal(err)
	}
	if blob, ok := d.Get(key); ok {
		t.Fatalf("corrupt artifact served: %q", blob)
	}
}

// TestDiskStoreTornIndexLineIgnored simulates a crash during the index
// append: the torn final line is skipped on replay and earlier entries
// still verify.
func TestDiskStoreTornIndexLineIgnored(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	keep := KeyOf("fp", "keep")
	d.Put(keep, []byte("kept"))
	d.Close()

	// Append a torn line (no trailing fields, no newline) as an
	// interrupted fsync would leave.
	f, err := os.OpenFile(filepath.Join(dir, "index.log"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(f, "v1 %s 99", KeyOf("fp", "torn"))
	f.Close()

	d2, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatalf("reopen with torn index: %v", err)
	}
	defer d2.Close()
	if got, ok := d2.Get(keep); !ok || string(got) != "kept" {
		t.Fatalf("intact entry lost after torn index line: %q, %v", got, ok)
	}
	if _, ok := d2.Get(KeyOf("fp", "torn")); ok {
		t.Fatal("torn index line produced a servable entry")
	}
}

// TestDiskStoreOrphanBlobInvisible simulates a crash between the object
// rename and the index append: the blob exists on disk but is not indexed,
// so it is a miss, and re-putting it makes it durable.
func TestDiskStoreOrphanBlobInvisible(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := KeyOf("fp", "orphan")
	obj := filepath.Join(dir, "objects", string(key[:2]), string(key))
	if err := os.MkdirAll(filepath.Dir(obj), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(obj, []byte("orphan"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Get(key); ok {
		t.Fatal("unindexed orphan blob was served")
	}
	d.Put(key, []byte("orphan"))
	if got, ok := d.Get(key); !ok || string(got) != "orphan" {
		t.Fatalf("re-put orphan: %q, %v", got, ok)
	}
	d.Close()
	d2, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if _, ok := d2.Get(key); !ok {
		t.Fatal("re-put orphan did not survive restart")
	}
}

// TestDiskStoreStrayTmpCleaned: tmp files from interrupted writes are
// removed on open and never visible to Get.
func TestDiskStoreStrayTmpCleaned(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	stray := filepath.Join(dir, "tmp", "put-12345")
	if err := os.WriteFile(stray, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatal("stray tmp file survived open")
	}
}
