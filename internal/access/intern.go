package access

import "sort"

// Interner is a project-level symbol table assigning dense uint32 IDs to
// (struct, field) Objects. The pairing engine replaces its hot-path
// map[Object]int lookups with sorted ID slices keyed by these IDs, so set
// intersection and ordering checks become merge scans and binary searches
// over machine words instead of hashed struct probes.
//
// IDs are assigned in ascending (Struct, Field) order when the table is
// built with InternSites, which makes ID order and the paper's canonical
// object order (the sort used for shared-object lists) one and the same:
// merging two ID-sorted slices yields output already in presentation order.
//
// An Interner is immutable after construction by InternSites; the zero-ish
// instance returned by NewInterner may be grown with Intern and is not safe
// for concurrent mutation.
type Interner struct {
	ids  map[Object]uint32
	objs []Object
}

// NewInterner returns an empty table.
func NewInterner() *Interner {
	return &Interner{ids: make(map[Object]uint32)}
}

// InternSites builds a table over every object accessed around the given
// sites, assigning IDs in ascending (Struct, Field) order. The result is
// deterministic for a given site set regardless of map iteration order.
func InternSites(sites []*Site) *Interner {
	seen := make(map[Object]struct{})
	for _, s := range sites {
		for o := range s.Objects() {
			seen[o] = struct{}{}
		}
	}
	all := make([]Object, 0, len(seen))
	for o := range seen {
		all = append(all, o)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Struct != all[j].Struct {
			return all[i].Struct < all[j].Struct
		}
		return all[i].Field < all[j].Field
	})
	t := &Interner{ids: make(map[Object]uint32, len(all)), objs: all}
	for i, o := range all {
		t.ids[o] = uint32(i)
	}
	return t
}

// Intern returns o's ID, assigning the next dense ID on first sight.
func (t *Interner) Intern(o Object) uint32 {
	if id, ok := t.ids[o]; ok {
		return id
	}
	id := uint32(len(t.objs))
	t.ids[o] = id
	t.objs = append(t.objs, o)
	return id
}

// ID returns o's ID and whether o has been interned.
func (t *Interner) ID(o Object) (uint32, bool) {
	id, ok := t.ids[o]
	return id, ok
}

// Object returns the object interned as id. It panics on IDs the table
// never issued, like a slice index out of range.
func (t *Interner) Object(id uint32) Object { return t.objs[id] }

// Len returns the number of interned objects; valid IDs are [0, Len).
func (t *Interner) Len() int { return len(t.objs) }

// ObjDist pairs an interned object ID with a statement distance. Slices of
// ObjDist sorted by ID are the pairing engine's replacement for the
// map[Object]int views of Site.Objects.
type ObjDist struct {
	ID   uint32
	Dist int32
}

// ObjDists returns the site's object/min-distance set (Site.Objects) as a
// slice sorted by interned ID. With a table built by InternSites the slice
// is therefore also in canonical (Struct, Field) order. keep filters the
// set; a nil keep keeps every object.
func (t *Interner) ObjDists(s *Site, keep func(Object) bool) []ObjDist {
	objs := s.Objects()
	out := make([]ObjDist, 0, len(objs))
	for o, d := range objs {
		if keep != nil && !keep(o) {
			continue
		}
		id, ok := t.ids[o]
		if !ok {
			continue
		}
		out = append(out, ObjDist{ID: id, Dist: int32(d)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// SideIDs returns the distinct interned IDs of the objects accessed in one
// window side (Site.Before or Site.After), sorted ascending. Together with
// ContainsID this turns Site.Orders — a linear scan over access lists —
// into two binary searches.
func (t *Interner) SideIDs(accs []*Access) []uint32 {
	if len(accs) == 0 {
		return nil
	}
	out := make([]uint32, 0, len(accs))
	for _, a := range accs {
		if id, ok := t.ids[a.Object]; ok {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	// Dedup in place: windows revisit hot objects constantly.
	w := 0
	for i, id := range out {
		if i == 0 || id != out[w-1] {
			out[w] = id
			w++
		}
	}
	return out[:w]
}

// ContainsID reports whether the sorted ID slice contains id.
func ContainsID(ids []uint32, id uint32) bool {
	i := sort.Search(len(ids), func(i int) bool { return ids[i] >= id })
	return i < len(ids) && ids[i] == id
}

// FindDist returns the distance recorded for id in the ID-sorted slice, and
// whether id is present.
func FindDist(ods []ObjDist, id uint32) (int32, bool) {
	i := sort.Search(len(ods), func(i int) bool { return ods[i].ID >= id })
	if i < len(ods) && ods[i].ID == id {
		return ods[i].Dist, true
	}
	return 0, false
}

// Usage bits describe HOW a site touches an object relative to its barrier:
// which side of the barrier and whether it loads or stores. A site's per-
// object usage signature (the OR of these bits) is the unit of comparison
// for the outlier-ranking census in internal/rank — two sites follow the
// same access-ordering protocol for an object exactly when their signatures
// match.
const (
	// UsageLoadBefore marks a load of the object before the barrier.
	UsageLoadBefore uint8 = 1 << iota
	// UsageStoreBefore marks a store to the object before the barrier.
	UsageStoreBefore
	// UsageLoadAfter marks a load of the object after the barrier.
	UsageLoadAfter
	// UsageStoreAfter marks a store to the object after the barrier.
	UsageStoreAfter
)

// ObjUsage pairs an interned object ID with a site's usage signature for
// that object.
type ObjUsage struct {
	ID   uint32
	Bits uint8
}

// ObjUsages returns the site's per-object usage signatures as a slice
// sorted by interned ID. Objects not present in the table are skipped. The
// result depends only on the site's access lists, never on their order, so
// it is deterministic across extraction schedules.
func (t *Interner) ObjUsages(s *Site) []ObjUsage {
	bits := make(map[uint32]uint8, len(s.Before)+len(s.After))
	mark := func(list []*Access, load, store uint8) {
		for _, a := range list {
			id, ok := t.ids[a.Object]
			if !ok {
				continue
			}
			if a.Kind == Store {
				bits[id] |= store
			} else {
				bits[id] |= load
			}
		}
	}
	mark(s.Before, UsageLoadBefore, UsageStoreBefore)
	mark(s.After, UsageLoadAfter, UsageStoreAfter)
	out := make([]ObjUsage, 0, len(bits))
	for id, b := range bits {
		out = append(out, ObjUsage{ID: id, Bits: b})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
