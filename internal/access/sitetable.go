package access

import (
	"runtime"
	"strings"
	"sync"
)

// SiteVecs are one site's interned vectors, keyed by the IDs of the table
// that built them. They are immutable once built and shared between
// successive tables whenever the site and the interner both carry over.
type SiteVecs struct {
	// Objs is the site's object/min-distance set (Site.Objects) without the
	// objects of generic structs, sorted by ID: the pairing engine's view.
	Objs []ObjDist
	// Before and After are the distinct IDs accessed on each window side,
	// sorted, so Site.Orders is two binary searches.
	Before, After []uint32
	// Usages are the site's per-object usage signatures over every object
	// it accesses, sorted by ID: the ranking census's view.
	Usages []ObjUsage
}

// SiteTable is the data layer the pairing engine and the ranking census
// share within one analysis: an Interner over every object the sites
// access, plus each site's interned vectors. A table is immutable once
// built, so it may be shared between runs and between projects; the next
// run derives its own table from it with BuildSiteTable.
type SiteTable struct {
	in    *Interner
	sites []*Site
	vecs  []*SiteVecs
	// at maps a site pointer to its index in sites.
	at map[*Site]int32
	// generic is the generic-struct filter Objs was built under.
	generic string
	stats   TableStats
}

// TableStats reports what a table carried over from the previous one.
type TableStats struct {
	// InternerReused reports that the previous table's Interner was kept
	// because the sites access exactly the objects it holds.
	InternerReused bool
	// Vectorized counts the sites whose vectors were built fresh.
	Vectorized int
}

// BuildSiteTable builds the table over sites, whose order becomes the
// table's index order. With a previous table (nil for a cold build), the
// previous Interner is reused when the sites access exactly its object set.
// IDs are a pure function of the object set (freezeObjects sorts it), so
// reuse yields the very IDs a fresh build would assign. When the Interner
// is reused and the generic-struct filter is unchanged, every site pointer
// the previous table holds keeps its vectors (sites are immutable once
// extracted; the filter is part of the key because Objs depends on it);
// only the other sites are vectorized, over up to workers goroutines
// (GOMAXPROCS when workers <= 0). The result holds only the given sites,
// in a copy of the slice, and prev is never modified.
func BuildSiteTable(prev *SiteTable, sites []*Site, generic []string, workers int) *SiteTable {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sites = append([]*Site(nil), sites...) // the caller keeps its slice
	t := &SiteTable{
		sites:   sites,
		vecs:    make([]*SiteVecs, len(sites)),
		at:      make(map[*Site]int32, len(sites)),
		generic: strings.Join(generic, "\x00"),
	}
	for i, s := range sites {
		t.at[s] = int32(i)
	}
	if prev != nil && prev.coversExactly(sites) {
		t.in, t.stats.InternerReused = prev.in, true
	} else {
		t.in = InternSitesParallel(sites, workers)
	}

	carry := t.stats.InternerReused && prev.generic == t.generic
	var todo []int
	for i, s := range sites {
		if carry {
			if j, ok := prev.at[s]; ok {
				t.vecs[i] = prev.vecs[j]
				continue
			}
		}
		todo = append(todo, i)
	}
	t.stats.Vectorized = len(todo)

	skip := make(map[string]bool, len(generic))
	for _, g := range generic {
		skip[g] = true
	}
	keep := func(o Object) bool { return !skip[o.Struct] }
	build := func(i int) {
		s := sites[i]
		t.vecs[i] = &SiteVecs{
			Objs:   t.in.ObjDists(s, keep),
			Before: t.in.SideIDs(s.Before),
			After:  t.in.SideIDs(s.After),
			Usages: t.in.ObjUsages(s),
		}
	}
	if workers > len(todo)/64 {
		workers = len(todo) / 64 // small batches are not worth the fan-out
	}
	if workers <= 1 {
		for _, i := range todo {
			build(i)
		}
		return t
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < len(todo); k += workers {
				build(todo[k])
			}
		}(w)
	}
	wg.Wait()
	return t
}

// coversExactly reports whether the sites access exactly the objects t's
// Interner holds. Sites t already vectorized mark their IDs from their
// usage vectors; only the objects of other sites are probed in the map.
// Every probe hitting makes the sites' object set a subset of the table's,
// and as many distinct IDs as the table holds makes it equal.
func (t *SiteTable) coversExactly(sites []*Site) bool {
	seen := make([]bool, t.in.Len())
	distinct := 0
	mark := func(id uint32) {
		if !seen[id] {
			seen[id] = true
			distinct++
		}
	}
	for _, s := range sites {
		if j, ok := t.at[s]; ok {
			for _, u := range t.vecs[j].Usages {
				mark(u.ID)
			}
			continue
		}
		for _, list := range [2][]*Access{s.Before, s.After} {
			for _, a := range list {
				id, ok := t.in.ids[a.Object]
				if !ok {
					return false
				}
				mark(id)
			}
		}
	}
	return distinct == t.in.Len()
}

// Interner returns the table's object interner.
func (t *SiteTable) Interner() *Interner { return t.in }

// Sites returns the table's sites in index order.
func (t *SiteTable) Sites() []*Site { return t.sites }

// Vecs returns the vectors of the site at index i.
func (t *SiteTable) Vecs(i int) *SiteVecs { return t.vecs[i] }

// Stats reports what the table carried over from the previous one.
func (t *SiteTable) Stats() TableStats { return t.stats }

// Index returns the index of site s, and whether the table holds it.
func (t *SiteTable) Index(s *Site) (int, bool) {
	i, ok := t.at[s]
	return int(i), ok
}
