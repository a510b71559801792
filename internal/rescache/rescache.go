// Package rescache is a content-addressed result cache for analysis
// outcomes. Entries are keyed by the SHA-256 of the inputs that fully
// determine the result (for OFence: the preprocessed source of every file
// plus a fingerprint of the analysis options), so invalidation is automatic:
// any change to the inputs produces a different key, and stale entries age
// out of the LRU bound.
//
// The cache also deduplicates identical in-flight computations
// (singleflight): when several callers ask for the same key concurrently,
// one performs the work and the rest wait for its result. Hit, miss,
// dedup and eviction counters feed the service's /metrics endpoint.
package rescache

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sync"
)

// Key is a content address: the hex SHA-256 of the cached computation's
// inputs.
type Key string

// Valid reports whether k has the canonical form KeyOf produces: exactly
// 64 lowercase hex digits. Anything that accepts keys from an untrusted
// caller, such as a store that maps keys to filesystem paths, must reject
// invalid keys before use, so a crafted key (path traversal, index-line
// injection) never reaches a backend.
func (k Key) Valid() bool {
	if len(k) != 2*sha256.Size {
		return false
	}
	for i := 0; i < len(k); i++ {
		c := k[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// KeyOf hashes an options fingerprint plus any number of input parts into a
// Key. Parts are length-framed so that concatenation ambiguities cannot
// collide ("ab","c" hashes differently from "a","bc").
func KeyOf(fingerprint string, parts ...string) Key {
	h := sha256.New()
	var frame [8]byte
	write := func(s string) {
		binary.LittleEndian.PutUint64(frame[:], uint64(len(s)))
		h.Write(frame[:])
		h.Write([]byte(s))
	}
	write(fingerprint)
	for _, p := range parts {
		write(p)
	}
	return Key(hex.EncodeToString(h.Sum(nil)))
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	// Hits counts lookups served from a stored entry.
	Hits uint64
	// Misses counts lookups that had to compute the value.
	Misses uint64
	// Dedups counts callers that joined an identical in-flight computation
	// instead of starting their own.
	Dedups uint64
	// Evictions counts entries dropped by the LRU bound.
	Evictions uint64
	// StoreHits counts lookups that missed in memory but were served from
	// the attached ArtifactStore (zero when no store is attached).
	StoreHits uint64
	// StorePuts counts computed values published to the attached store.
	StorePuts uint64
	// Entries is the current number of stored values.
	Entries int
}

// HitRate is the fraction of lookups that avoided a computation (stored
// hits, in-flight joins and backing-store hits), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Dedups + s.StoreHits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.Dedups+s.StoreHits) / float64(total)
}

type entry struct {
	key Key
	val any
}

type flight struct {
	done chan struct{}
	val  any
	err  error
}

// Cache is a bounded, content-addressed LRU with singleflight deduplication.
// The zero value is not usable; call New.
type Cache struct {
	mu        sync.Mutex
	cap       int
	ll        *list.List // front = most recently used
	items     map[Key]*list.Element
	inflight  map[Key]*flight
	hits      uint64
	misses    uint64
	dedups    uint64
	evictions uint64
	storeHits uint64
	storePuts uint64

	// store/codec form the optional second tier consulted by Do on a
	// memory miss; see AttachStore.
	store ArtifactStore
	codec Codec
}

// New returns a cache bounded to capacity entries (values beyond the bound
// evict least-recently-used). capacity <= 0 selects the default of 128.
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = 128
	}
	return &Cache{
		cap:      capacity,
		ll:       list.New(),
		items:    map[Key]*list.Element{},
		inflight: map[Key]*flight{},
	}
}

// add stores v under k, evicting the least-recently-used entry when the
// bound is exceeded. Callers hold c.mu. Only Do adds, for a key that is
// neither stored nor in flight.
func (c *Cache) add(k Key, v any) {
	c.items[k] = c.ll.PushFront(&entry{key: k, val: v})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*entry).key)
		c.evictions++
	}
}

// AttachStore layers an ArtifactStore behind the in-memory LRU: Do
// consults the store on a memory miss (decoding blobs with codec) and
// publishes freshly computed values back, so entries computed by any
// process sharing the store become hits here. Attach before the cache is
// in use; store lookups and publishes are deduplicated by the same
// singleflight as computations.
func (c *Cache) AttachStore(store ArtifactStore, codec Codec) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.store = store
	c.codec = codec
}

// Do returns the value for k, computing it with fn on a miss. Concurrent
// calls for the same key are deduplicated: one caller runs fn, the others
// wait and share its outcome. hit reports whether the caller avoided running
// fn itself (stored entry, in-flight join, or attached-store hit). Errors
// are returned to every waiter but never cached, so a later call retries.
func (c *Cache) Do(k Key, fn func() (any, error)) (v any, hit bool, err error) {
	c.mu.Lock()
	if el, ok := c.items[k]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		c.mu.Unlock()
		return el.Value.(*entry).val, true, nil
	}
	if fl, ok := c.inflight[k]; ok {
		c.dedups++
		c.mu.Unlock()
		<-fl.done
		return fl.val, true, fl.err
	}
	fl := &flight{done: make(chan struct{})}
	c.inflight[k] = fl
	store, codec := c.store, c.codec
	c.mu.Unlock()

	// Second tier: a blob computed by another process (or a previous run)
	// short-circuits the computation. Decode failures fall through to fn —
	// a stale or foreign blob must never poison the analysis.
	fromStore := false
	if store != nil && codec.Decode != nil {
		if blob, ok := store.Get(k); ok {
			if val, derr := codec.Decode(blob); derr == nil {
				fl.val, fromStore = val, true
			}
		}
	}
	if !fromStore {
		fl.val, fl.err = fn()
	}

	c.mu.Lock()
	delete(c.inflight, k)
	if fromStore {
		c.storeHits++
	} else {
		c.misses++
	}
	published := false
	if fl.err == nil {
		c.add(k, fl.val)
		if !fromStore && store != nil && codec.Encode != nil {
			c.storePuts++
			published = true
		}
	}
	c.mu.Unlock()
	close(fl.done)
	if published {
		if blob, eerr := codec.Encode(fl.val); eerr == nil {
			store.Put(k, blob)
		}
	}
	return fl.val, fromStore, fl.err
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Dedups:    c.dedups,
		Evictions: c.evictions,
		StoreHits: c.storeHits,
		StorePuts: c.storePuts,
		Entries:   c.ll.Len(),
	}
}
