package ctoken

import (
	"strings"
	"sync"
)

// symStripes is the stripe count. Power of two so the shard index is a mask;
// 16 stripes keep the per-stripe RWMutex uncontended at tree-scale worker
// counts while the ID layout (local<<symShardBits | shard) stays well under
// uint32 for any realistic identifier population.
const (
	symStripes   = 16
	symShardBits = 4
)

// SymTab is a concurrency-safe identifier table assigning stable uint32 IDs
// to identifier spellings. The zero-copy Scanner interns every identifier it
// emits, which serves two purposes:
//
//   - Canonicalization: all tokens spelling the same identifier share one
//     backing string (cloned once, so token text stops pinning whole source
//     buffers), and every later map keyed by identifier hashes fewer distinct
//     string headers.
//   - Shared IDs: downstream consumers — internal/access canonicalizes the
//     (struct, field) strings of its Objects through the same table — agree
//     on one identity per name without re-hashing per stage.
//
// A Project-level SymTab is shared by every worker of the pipelined
// frontend, so all methods are safe for concurrent use. Internally the
// table is striped: a spelling hashes to one of 16 shards, each with its
// own lock, map and name slice, so tree-scale worker pools do not serialize
// on one mutex. An ID encodes (shard-local index << 4) | shard; IDs are
// stable for the table's lifetime and canonical per spelling, but they are
// NOT dense — treat them as opaque tokens, never as slice indices.
type SymTab struct {
	shards [symStripes]symShard
}

type symShard struct {
	mu    sync.RWMutex
	ids   map[string]uint32 // spelling -> shard-local index
	names []string
}

// NewSymTab returns an empty table, pre-sized for a project-scale identifier
// population so the hot interning path rarely rehashes.
func NewSymTab() *SymTab {
	t := &SymTab{}
	for i := range t.shards {
		t.shards[i].ids = make(map[string]uint32, 256)
		t.shards[i].names = make([]string, 0, 256)
	}
	return t
}

// symShardOf hashes a spelling to its stripe (FNV-1a, masked).
func symShardOf(name string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= 16777619
	}
	return h & (symStripes - 1)
}

// intern returns the spelling's shard-local index and canonical backing
// string, assigning on first sight.
func (sh *symShard) intern(name string) (uint32, string) {
	sh.mu.RLock()
	local, ok := sh.ids[name]
	if ok {
		canon := sh.names[local]
		sh.mu.RUnlock()
		return local, canon
	}
	sh.mu.RUnlock()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if local, ok := sh.ids[name]; ok {
		return local, sh.names[local]
	}
	local = uint32(len(sh.names))
	// Clone so the table never pins a source buffer through a substring.
	name = strings.Clone(name)
	sh.ids[name] = local
	sh.names = append(sh.names, name)
	return local, name
}

// Intern returns name's ID, assigning one on first sight. IDs are stable
// and unique per spelling but not dense; use Name to map back.
func (t *SymTab) Intern(name string) uint32 {
	s := symShardOf(name)
	local, _ := t.shards[s].intern(name)
	return local<<symShardBits | s
}

// Canon returns the canonical backing string for name, interning it on
// first sight. The result compares equal to name but is shared by every
// caller, so holding it never retains the caller's buffer.
func (t *SymTab) Canon(name string) string {
	_, canon := t.shards[symShardOf(name)].intern(name)
	return canon
}

// Name returns the spelling interned as id. It panics on IDs the table
// never issued, like a slice index out of range.
func (t *SymTab) Name(id uint32) string {
	sh := &t.shards[id&(symStripes-1)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.names[id>>symShardBits]
}

// Len returns the number of interned identifiers.
func (t *SymTab) Len() int {
	n := 0
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.RLock()
		n += len(sh.names)
		sh.mu.RUnlock()
	}
	return n
}
