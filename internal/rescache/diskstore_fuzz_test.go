package rescache

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
)

// replayed returns a store with no files that has replayed data.
func replayed(data []byte) *DiskStore {
	d := &DiskStore{index: map[Key]diskEntry{}}
	d.replay(data)
	return d
}

// checkAccounting fails t unless d's byte total is the sum of its entry
// sizes, no size is negative and every entry is in the eviction queue.
func checkAccounting(t *testing.T, d *DiskStore) {
	t.Helper()
	var sum int64
	queued := map[diskOrder]bool{}
	for _, o := range d.order {
		queued[o] = true
	}
	for key, ent := range d.index {
		if ent.size < 0 {
			t.Fatalf("entry %s has size %d", key, ent.size)
		}
		if !queued[diskOrder{key, ent.seq}] {
			t.Fatalf("entry %s (seq %d) is not in the eviction queue", key, ent.seq)
		}
		sum += ent.size
	}
	if d.bytes != sum || d.bytes < 0 {
		t.Fatalf("bytes = %d, entries sum to %d", d.bytes, sum)
	}
}

// FuzzDiskStoreReplay feeds the index replay arbitrary bytes followed by
// one well-formed "v1" line, and optionally its "d1" tombstone. Replay
// must not panic, must keep the byte total equal to the sum of the entry
// sizes and non-negative, and must apply the well-formed lines whatever
// came before them. A v1 line whose size is negative or would overflow the
// total is malformed and must leave the entry as it was.
func FuzzDiskStoreReplay(f *testing.F) {
	key := KeyOf("fuzz", "replay")
	sum := strings.Repeat("ab", 32)
	entry := func(k Key, size int64) string { return fmt.Sprintf("v1 %s %d %s\n", k, size, sum) }
	f.Add([]byte(""), int64(10), false)
	f.Add([]byte(entry(KeyOf("a"), 5)+entry(key, 7)), int64(3), false)
	f.Add([]byte(entry(key, 7)+"d1 "+string(key)+"\n"), int64(4), true)
	f.Add([]byte(entry(KeyOf("a"), -5)+"v1 torn"), int64(-1), false)
	f.Add([]byte(entry(KeyOf("a"), math.MaxInt64)), int64(1), false)
	f.Add([]byte(entry(KeyOf("a"), 9)+strings.Repeat("x", maxIndexLine+1)+"\n"+entry(KeyOf("b"), 2)), int64(6), false)
	f.Add([]byte("d1\nv1 k 1 2\n\r\n\x00"), int64(0), true)
	f.Fuzz(func(t *testing.T, garbage []byte, size int64, tomb bool) {
		tail := entry(key, size)
		if tomb {
			tail += "d1 " + string(key) + "\n"
		}
		data := append(append(bytes.Clone(garbage), '\n'), tail...)
		d := replayed(data)
		checkAccounting(t, d)
		before := replayed(garbage)
		checkAccounting(t, before)
		old, had := before.index[key]
		ent, ok := d.index[key]
		switch {
		case tomb:
			if ok {
				t.Fatalf("tombstoned entry still indexed: %+v", ent)
			}
		case size < 0 || size > math.MaxInt64-(before.bytes-old.size):
			if ok != had || ent.size != old.size || ent.sum != old.sum {
				t.Fatalf("malformed size %d changed the entry: %+v, was %+v", size, ent, old)
			}
		case !ok || ent.size != size || ent.sum != sum:
			t.Fatalf("well-formed line not applied: got %+v (indexed %t), want size %d", ent, ok, size)
		}
		for k, e := range before.index {
			if got, ok := d.index[k]; k != key && (!ok || got.size != e.size || got.sum != e.sum) {
				t.Fatalf("entry %s lost or changed by later lines", k)
			}
		}
	})
}

// TestDiskStoreReplaySkipsBadLines pins the two replay bugs: a negative
// size lowered the byte total, and a line over the scanner's 1 MiB limit
// silently ended the replay, dropping every later entry.
func TestDiskStoreReplaySkipsBadLines(t *testing.T) {
	sum := strings.Repeat("0", 64)
	var b strings.Builder
	fmt.Fprintf(&b, "v1 %s 100 %s\n", KeyOf("a"), sum)
	fmt.Fprintf(&b, "v1 %s -60 %s\n", KeyOf("neg"), sum)
	b.WriteString(strings.Repeat("y", maxIndexLine+1) + "\n")
	fmt.Fprintf(&b, "v1 %s 20 %s\n", KeyOf("b"), sum)
	d := replayed([]byte(b.String()))
	checkAccounting(t, d)
	if _, ok := d.index[KeyOf("neg")]; ok {
		t.Error("negative-size entry indexed")
	}
	if _, ok := d.index[KeyOf("b")]; !ok {
		t.Error("entry after an over-long line dropped")
	}
	if d.bytes != 120 || d.logLines != 4 {
		t.Errorf("bytes = %d, lines = %d; want 120 and 4", d.bytes, d.logLines)
	}
}
