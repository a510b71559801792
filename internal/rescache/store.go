// ArtifactStore is the pluggable backend tier behind an in-memory cache: a
// content-addressed blob store keyed by rescache.Key. The in-memory LRU
// (Cache) stays the first tier; a Cache with an attached store consults the
// store on a memory miss and publishes freshly computed entries back, so an
// entry computed before a restart (or by another process sharing a disk
// store) is a hit.
//
// Two implementations exist:
//
//   - MemStore (this file): a byte-bounded in-process LRU of blobs — the
//     default when nothing durable is configured.
//   - DiskStore (diskstore.go): content-addressed files plus an fsync'd
//     index; survives restarts.
//
// Stores are caches, not databases: implementations must swallow I/O
// failures (recording them in Stats) rather than fail an analysis, and Put
// must be idempotent — the key is a content address, so writing the same
// key twice writes the same bytes.
package rescache

import (
	"container/list"
	"sync"
)

// ArtifactStore is a content-addressed blob store shared between analysis
// processes. Implementations must be safe for concurrent use.
type ArtifactStore interface {
	// Get returns the blob stored under key, if present.
	Get(key Key) ([]byte, bool)
	// Put stores blob under key. Put is best-effort and idempotent;
	// failures are recorded in Stats, never returned.
	Put(key Key, blob []byte)
	// Name identifies the backend ("memory" or "disk") in metrics.
	Name() string
	// Stats snapshots the store counters.
	Stats() StoreStats
	// Close releases backend resources. The store is unusable afterwards.
	Close() error
}

// StoreStats is a point-in-time snapshot of one store's counters.
type StoreStats struct {
	// Gets counts lookups; Hits the subset that returned a blob.
	Gets, Hits uint64
	// Puts counts stored blobs (idempotent re-puts of a present key are
	// not counted).
	Puts uint64
	// Errors counts swallowed backend failures (I/O).
	Errors uint64
	// Evictions counts blobs dropped to fit the backend's byte budget.
	Evictions uint64
	// Entries and Bytes describe the current contents.
	Entries int
	Bytes   int64
}

// HitRatio is Hits/Gets, or 0 before any lookup.
func (s StoreStats) HitRatio() float64 {
	if s.Gets == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Gets)
}

// Codec translates one cache's in-memory values to and from store blobs.
type Codec struct {
	// Encode serializes a cache value.
	Encode func(v any) ([]byte, error)
	// Decode reconstructs a cache value from a blob.
	Decode func(blob []byte) (any, error)
}

// MemStore is the in-memory ArtifactStore: a byte-bounded LRU of blobs.
// It is the process-local stand-in for the durable backends — useful in
// tests and as the coordinator default when no disk directory is given.
type MemStore struct {
	mu        sync.Mutex
	maxBytes  int64
	bytes     int64
	ll        *list.List // front = most recently used
	items     map[Key]*list.Element
	gets      uint64
	hits      uint64
	puts      uint64
	evictions uint64
}

type memEntry struct {
	key  Key
	blob []byte
}

// NewMemStore returns a MemStore bounded to maxBytes of blob payload
// (<= 0 selects 256 MiB).
func NewMemStore(maxBytes int64) *MemStore {
	if maxBytes <= 0 {
		maxBytes = 256 << 20
	}
	return &MemStore{
		maxBytes: maxBytes,
		ll:       list.New(),
		items:    map[Key]*list.Element{},
	}
}

// Get returns the blob stored under key, marking it recently used.
func (m *MemStore) Get(key Key) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.gets++
	el, ok := m.items[key]
	if !ok {
		return nil, false
	}
	m.ll.MoveToFront(el)
	m.hits++
	return el.Value.(*memEntry).blob, true
}

// Put stores blob under key, evicting least-recently-used blobs beyond the
// byte bound. A key already present is left untouched (content-addressed:
// same key, same bytes).
func (m *MemStore) Put(key Key, blob []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.items[key]; ok {
		m.ll.MoveToFront(el)
		return
	}
	m.items[key] = m.ll.PushFront(&memEntry{key: key, blob: blob})
	m.bytes += int64(len(blob))
	m.puts++
	for m.bytes > m.maxBytes && m.ll.Len() > 1 {
		oldest := m.ll.Back()
		ent := oldest.Value.(*memEntry)
		m.ll.Remove(oldest)
		delete(m.items, ent.key)
		m.bytes -= int64(len(ent.blob))
		m.evictions++
	}
}

// Name identifies the backend in metrics.
func (m *MemStore) Name() string { return "memory" }

// Stats snapshots the counters.
func (m *MemStore) Stats() StoreStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return StoreStats{
		Gets:      m.gets,
		Hits:      m.hits,
		Puts:      m.puts,
		Evictions: m.evictions,
		Entries:   m.ll.Len(),
		Bytes:     m.bytes,
	}
}

// Close releases nothing for the in-memory store.
func (m *MemStore) Close() error { return nil }
