package rescache

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
)

// DiskStore is the durable ArtifactStore: content-addressed blob files plus
// an fsync'd append-only index, so cache entries survive process restarts
// and can be shared between processes through a common directory.
//
// Layout under the root directory:
//
//	objects/<key[:2]>/<key>   one file per blob
//	index.log                 append-only "v1 <key> <size> <sha256>\n"
//	tmp/                      staging area for in-flight writes
//
// Crash-consistency protocol:
//
//   - Put writes the blob to tmp/, fsyncs it, renames it into objects/
//     (atomic on POSIX), then appends its index line and fsyncs the index.
//     A crash at any point leaves either a stray tmp file (removed on the
//     next Open) or a renamed blob with no index line (invisible; the next
//     Put of that key simply rewrites it).
//   - Open replays the index, ignoring any torn final line (a crash during
//     the index append).
//   - Get serves only indexed keys and verifies the blob's length and
//     SHA-256 against the index line before returning it, so a torn or
//     corrupted object file is reported as a miss and dropped, never served.
//   - Eviction appends a "d1 <key>" tombstone line before unlinking the
//     object. A crash between the two leaves a tombstoned entry with an
//     orphaned object file — invisible, rewritten by the next Put of that
//     key. A crash before the tombstone batch reaches disk resurrects the
//     index line of an already-unlinked object, which Get's verification
//     then drops. Replayers that predate tombstones skip the two-field
//     lines and converge the same way.
//   - Compaction rewrites the live index to tmp/ (fsync'd) and renames it
//     over index.log, so a crash leaves either the old log (tombstones and
//     all) or the fully-written compact one, never a partial index.
type DiskStore struct {
	root      string
	mu        sync.Mutex
	index     map[Key]diskEntry
	log       *os.File
	gets      uint64
	hits      uint64
	puts      uint64
	errs      uint64
	evictions uint64
	bytes     int64

	// maxBytes is the eviction budget (<= 0: unbounded). order is the
	// insertion queue eviction consumes from, oldest first; an entry is
	// stale — skipped — when its seq no longer matches the index, which
	// happens when a key is re-put after eviction.
	maxBytes int64
	seq      uint64
	order    []diskOrder

	// logLines counts lines in index.log; lines beyond the live entries
	// are garbage (superseded entries, tombstones) and trigger compaction.
	logLines int
}

type diskEntry struct {
	size int64
	sum  string // hex SHA-256 of the blob
	seq  uint64 // insertion sequence, pairs with the order queue
}

type diskOrder struct {
	key Key
	seq uint64
}

// OpenDiskStore opens (creating if needed) a disk store rooted at dir and
// replays its index. Stray tmp files from interrupted writes are removed.
func OpenDiskStore(dir string) (*DiskStore, error) {
	return OpenDiskStoreCapped(dir, 0)
}

// OpenDiskStoreCapped is OpenDiskStore with an eviction budget: once the
// indexed blobs exceed maxBytes, the oldest entries are evicted (tombstoned
// in the index, object unlinked) until the store fits, keeping at least the
// newest entry. maxBytes <= 0 disables eviction. A store over budget on
// open — smaller cap than last run, or garbage from a crashed eviction —
// is trimmed immediately.
func OpenDiskStoreCapped(dir string, maxBytes int64) (*DiskStore, error) {
	for _, sub := range []string{"objects", "tmp"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("diskstore: %w", err)
		}
	}
	tmps, _ := os.ReadDir(filepath.Join(dir, "tmp"))
	for _, e := range tmps {
		_ = os.Remove(filepath.Join(dir, "tmp", e.Name()))
	}

	d := &DiskStore{root: dir, index: map[Key]diskEntry{}, maxBytes: maxBytes}
	idxPath := filepath.Join(dir, "index.log")
	if data, err := os.ReadFile(idxPath); err == nil {
		d.replay(data)
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("diskstore: read index: %w", err)
	}
	log, err := os.OpenFile(idxPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("diskstore: open index: %w", err)
	}
	d.log = log
	d.mu.Lock()
	d.evictLocked()
	d.maybeCompactLocked()
	d.mu.Unlock()
	return d, nil
}

// maxIndexLine bounds an index line. Well-formed lines are under 200
// bytes, so a longer one is garbage, skipped like any malformed line.
const maxIndexLine = 1 << 20

// replay parses the index, skipping malformed lines (a torn final append,
// a negative size, a size the byte total cannot hold, a line longer than
// maxIndexLine). "v1 <key> <size> <sum>" lines insert or supersede an
// entry; "d1 <key>" tombstones drop one. Live entries keep their log
// order, so eviction order survives restarts.
func (d *DiskStore) replay(data []byte) {
	for len(data) > 0 {
		line := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			data = nil
		}
		d.logLines++
		if len(line) > maxIndexLine {
			continue
		}
		fields := strings.Fields(string(line))
		if len(fields) == 2 && fields[0] == "d1" {
			key := Key(fields[1])
			if ent, ok := d.index[key]; ok {
				delete(d.index, key)
				d.bytes -= ent.size
			}
			continue
		}
		if len(fields) != 4 || fields[0] != "v1" {
			continue // torn or foreign line: ignore
		}
		size, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil || size < 0 || len(fields[3]) != sha256.Size*2 {
			continue
		}
		key := Key(fields[1])
		if !key.Valid() {
			continue
		}
		rest := d.bytes
		if old, ok := d.index[key]; ok {
			rest -= old.size
		}
		if size > math.MaxInt64-rest {
			continue
		}
		d.bytes = rest + size
		d.seq++
		d.index[key] = diskEntry{size: size, sum: fields[3], seq: d.seq}
		d.order = append(d.order, diskOrder{key: key, seq: d.seq})
	}
}

// evictLocked drops the oldest entries until the store fits its budget,
// always keeping the newest entry (one oversized blob is served, not
// thrashed). Tombstones are appended before objects are unlinked and the
// batch is fsync'd once; see the crash-consistency protocol above.
func (d *DiskStore) evictLocked() {
	if d.maxBytes <= 0 {
		return
	}
	evicted := false
	for d.bytes > d.maxBytes && len(d.index) > 1 && len(d.order) > 0 {
		o := d.order[0]
		d.order = d.order[1:]
		ent, ok := d.index[o.key]
		if !ok || ent.seq != o.seq {
			continue // evicted earlier, or re-put since: a newer order entry exists
		}
		if d.log != nil {
			if _, err := d.log.WriteString("d1 " + string(o.key) + "\n"); err != nil {
				d.errs++
				return
			}
			d.logLines++
		}
		delete(d.index, o.key)
		d.bytes -= ent.size
		d.evictions++
		evicted = true
		_ = os.Remove(d.objectPath(o.key))
	}
	if evicted && d.log != nil {
		if err := d.log.Sync(); err != nil {
			d.errs++
		}
	}
}

// maybeCompactLocked rewrites index.log down to its live entries once
// garbage lines (superseded entries, tombstones) outnumber them with some
// slack, bounding the log at O(live entries) amortized.
func (d *DiskStore) maybeCompactLocked() {
	if d.log == nil || d.logLines <= 2*len(d.index)+64 {
		return
	}
	if err := d.compactLocked(); err != nil {
		d.errs++
	}
}

// compactLocked writes the live index to a staging file in tmp/, fsyncs it
// and renames it over index.log — the same atomic-replace protocol Put uses
// for objects — then reopens the append handle.
func (d *DiskStore) compactLocked() error {
	tmp, err := os.CreateTemp(filepath.Join(d.root, "tmp"), "index-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	w := bufio.NewWriter(tmp)
	lines := 0
	for _, o := range d.order {
		ent, ok := d.index[o.key]
		if !ok || ent.seq != o.seq {
			continue
		}
		fmt.Fprintf(w, "v1 %s %d %s\n", o.key, ent.size, ent.sum)
		lines++
	}
	if err := w.Flush(); err == nil {
		err = tmp.Sync()
	}
	if err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	// The old handle is closed before the rename so a crash in between
	// leaves the previous log intact and appendable on reopen.
	if d.log != nil {
		if err := d.log.Close(); err != nil {
			d.log = nil
			os.Remove(name)
			return err
		}
		d.log = nil
	}
	idxPath := filepath.Join(d.root, "index.log")
	if err := os.Rename(name, idxPath); err != nil {
		os.Remove(name)
		return err
	}
	log, err := os.OpenFile(idxPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	d.log = log
	d.logLines = lines
	// Drop the stale prefix of the order queue while preserving order.
	live := d.order[:0]
	for _, o := range d.order {
		if ent, ok := d.index[o.key]; ok && ent.seq == o.seq {
			live = append(live, o)
		}
	}
	d.order = live
	return nil
}

func (d *DiskStore) objectPath(key Key) string {
	prefix := "xx"
	if len(key) >= 2 {
		prefix = string(key[:2])
	}
	return filepath.Join(d.root, "objects", prefix, string(key))
}

// Get returns the blob stored under key after verifying it against the
// index; a torn or missing object file is dropped and reported as a miss.
func (d *DiskStore) Get(key Key) ([]byte, bool) {
	d.mu.Lock()
	d.gets++
	if !key.Valid() {
		// An invalid key can never have been indexed, and must never be
		// turned into a filesystem path.
		d.errs++
		d.mu.Unlock()
		return nil, false
	}
	ent, ok := d.index[key]
	d.mu.Unlock()
	if !ok {
		return nil, false
	}
	blob, err := os.ReadFile(d.objectPath(key))
	if err != nil || int64(len(blob)) != ent.size || hexSum(blob) != ent.sum {
		// Torn, corrupted or vanished artifact: forget it so the caller
		// recomputes; the entry will be rewritten by the next Put.
		d.mu.Lock()
		if cur, still := d.index[key]; still && cur == ent {
			delete(d.index, key)
			d.bytes -= ent.size
		}
		if err != nil && !os.IsNotExist(err) {
			d.errs++
		}
		d.mu.Unlock()
		_ = os.Remove(d.objectPath(key))
		return nil, false
	}
	d.mu.Lock()
	d.hits++
	d.mu.Unlock()
	return blob, true
}

// Put durably stores blob under key (tmp write + fsync + rename + fsync'd
// index append). A key already indexed is left untouched.
func (d *DiskStore) Put(key Key, blob []byte) {
	d.mu.Lock()
	if !key.Valid() {
		// Refuse before the key can become a path under objects/ or a line
		// in index.log: "../"-style keys would escape the root via
		// writeObject's MkdirAll+rename, and whitespace would corrupt the
		// space-delimited index.
		d.errs++
		d.mu.Unlock()
		return
	}
	if _, ok := d.index[key]; ok {
		d.mu.Unlock()
		return
	}
	d.mu.Unlock()

	sum := hexSum(blob)
	obj := d.objectPath(key)
	if err := d.writeObject(obj, blob); err != nil {
		d.mu.Lock()
		d.errs++
		d.mu.Unlock()
		return
	}

	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.index[key]; ok {
		return // raced with an identical Put; the object is shared
	}
	if d.log != nil {
		line := fmt.Sprintf("v1 %s %d %s\n", key, len(blob), sum)
		if _, err := d.log.WriteString(line); err != nil {
			d.errs++
			return
		}
		if err := d.log.Sync(); err != nil {
			d.errs++
			return
		}
		d.logLines++
	}
	d.seq++
	d.index[key] = diskEntry{size: int64(len(blob)), sum: sum, seq: d.seq}
	d.order = append(d.order, diskOrder{key: key, seq: d.seq})
	d.bytes += int64(len(blob))
	d.puts++
	d.evictLocked()
	d.maybeCompactLocked()
}

// writeObject stages blob in tmp/, fsyncs it and renames it into place.
func (d *DiskStore) writeObject(obj string, blob []byte) error {
	if err := os.MkdirAll(filepath.Dir(obj), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Join(d.root, "tmp"), "put-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	if err := os.Rename(name, obj); err != nil {
		os.Remove(name)
		return err
	}
	return nil
}

// Name identifies the backend in metrics.
func (d *DiskStore) Name() string { return "disk" }

// Stats snapshots the counters.
func (d *DiskStore) Stats() StoreStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return StoreStats{
		Gets:      d.gets,
		Hits:      d.hits,
		Puts:      d.puts,
		Errors:    d.errs,
		Evictions: d.evictions,
		Entries:   len(d.index),
		Bytes:     d.bytes,
	}
}

// Close flushes and closes the index log.
func (d *DiskStore) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.log == nil {
		return nil
	}
	err := d.log.Close()
	d.log = nil
	return err
}

func hexSum(blob []byte) string {
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}
