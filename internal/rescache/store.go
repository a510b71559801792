// ArtifactStore is the pluggable backend tier behind an in-memory cache: a
// content-addressed blob store keyed by rescache.Key. The in-memory LRU
// (Cache) stays the first tier; a Cache with an attached store consults the
// store on a memory miss and publishes freshly computed entries back, so an
// entry computed before a restart (or by another process sharing a disk
// store) is a hit.
//
// The one implementation is DiskStore (diskstore.go): content-addressed
// files plus an fsync'd index; it survives restarts. The first tier is
// already an in-memory LRU, so a second one in memory would only hold
// the same entries twice.
//
// Stores are caches, not databases: implementations must swallow I/O
// failures (recording them in Stats) rather than fail an analysis, and Put
// must be idempotent — the key is a content address, so writing the same
// key twice writes the same bytes.
package rescache

// ArtifactStore is a content-addressed blob store shared between analysis
// processes. Implementations must be safe for concurrent use.
type ArtifactStore interface {
	// Get returns the blob stored under key, if present.
	Get(key Key) ([]byte, bool)
	// Put stores blob under key. Put is best-effort and idempotent;
	// failures are recorded in Stats, never returned.
	Put(key Key, blob []byte)
	// Name identifies the backend ("disk") in metrics.
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
