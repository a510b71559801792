package access

import (
	"cmp"
	"slices"
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
	// sorted reports that sites are in canonical order (CompareSites), so
	// Index binary-searches them and the next table can be aligned with
	// this one by one merge walk.
	sorted bool
	// at maps a site pointer to its index in sites; built on first use, and
	// only for a table whose sites are not in canonical order.
	atOnce sync.Once
	at     map[*Site]int32
	// refs[id] is the number of sites whose usage vectors hold id: every
	// count is positive, since the Interner holds exactly the objects the
	// sites access.
	refs []int32
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

// TableDiff relates a table to the previous table it carried every kept
// site's vectors from: which sites are kept, and where each one moved.
type TableDiff struct {
	// FromPrev[i] is the previous table's index of site i, or -1 when site
	// i is new.
	FromPrev []int32
	// ToNew[j] is the index of the previous table's site j, or -1 when it
	// was dropped.
	ToNew []int32
	// Added and Dropped list the new sites' indices and the dropped sites'
	// previous indices, ascending.
	Added, Dropped []int32
}

// CompareSites is the canonical site order: by analyzed file, then line,
// column and barrier name, and last the file of the position (a header's
// barrier can share line, column and name with one in the file including
// it). Extraction keeps site IDs — the position with its file, and the
// name — unique per analyzed file, so the order is total over one
// analysis's sites.
func CompareSites(a, b *Site) int {
	if a.File != b.File {
		return strings.Compare(a.File, b.File)
	}
	if c := cmp.Compare(a.Pos.Line, b.Pos.Line); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Pos.Col, b.Pos.Col); c != 0 {
		return c
	}
	if c := strings.Compare(a.Name, b.Name); c != 0 {
		return c
	}
	return strings.Compare(a.Pos.File, b.Pos.File)
}

// SortSites sorts sites into canonical order. The sort is stable, so sites
// CompareSites cannot tell apart keep their input order.
func SortSites(sites []*Site) {
	slices.SortStableFunc(sites, CompareSites)
}

// BuildSiteTable builds the table over sites, whose order becomes the
// table's index order. With a previous table in canonical order (a nil one,
// or one out of order, makes the build cold), the previous Interner is
// reused when the sites access exactly its object set.
// IDs are a pure function of the object set (InternSites sorts it), so
// reuse yields the very IDs a fresh build would assign. When the Interner
// is reused and the generic-struct filter is unchanged, every site pointer
// the previous table holds keeps its vectors (sites are immutable once
// extracted; the filter is part of the key because Objs depends on it),
// and the diff says which ones those are; otherwise the diff is nil. Only
// the other sites are vectorized. The result holds only the given sites,
// in a copy of the slice, and prev is never modified.
//
// One merge walk matches the two tables' sites (see align); no map is
// built.
func BuildSiteTable(prev *SiteTable, sites []*Site, generic []string) (*SiteTable, *TableDiff) {
	sites = append([]*Site(nil), sites...) // the caller keeps its slice
	t := &SiteTable{
		sites:   sites,
		vecs:    make([]*SiteVecs, len(sites)),
		generic: strings.Join(generic, "\x00"),
	}
	var d *TableDiff
	if prev != nil && prev.sorted {
		d = align(prev, t)
	} else {
		t.sorted = slices.IsSortedFunc(sites, CompareSites)
	}
	if d != nil && prev.covers(t, d) {
		t.in, t.stats.InternerReused = prev.in, true
	} else {
		t.in = InternSites(sites)
	}
	// align carried every kept site's vectors; they hold only under the
	// same Interner and generic filter.
	var todo []int32
	if d != nil && t.stats.InternerReused && prev.generic == t.generic {
		todo = d.Added
	} else {
		d = nil
		clear(t.vecs)
		todo = make([]int32, len(sites))
		for i := range todo {
			todo[i] = int32(i)
		}
	}
	t.stats.Vectorized = len(todo)

	skip := make(map[string]bool, len(generic))
	for _, g := range generic {
		skip[g] = true
	}
	keep := func(o Object) bool { return !skip[o.Struct] }
	for _, i := range todo {
		s := sites[i]
		t.vecs[i] = &SiteVecs{
			Objs:   t.in.ObjDists(s, keep),
			Before: t.in.SideIDs(s.Before),
			After:  t.in.SideIDs(s.After),
			Usages: t.in.ObjUsages(s),
		}
	}
	t.countRefs()
	return t, d
}

// align matches t's sites with prev's, which are in canonical order, by
// one merge walk, carries each kept site's vectors (BuildSiteTable drops
// them when the Interner changes) and sets t.sorted. The kept sites keep
// their relative order, so t is in canonical order when every added site
// is in order with its neighbours.
func align(prev, t *SiteTable) *TableDiff {
	d := &TableDiff{FromPrev: make([]int32, len(t.sites)), ToNew: make([]int32, len(prev.sites))}
	// A site out of canonical order in t can only be counted as dropped and
	// added: at worst a kept site is re-vectorized.
	i, j := 0, 0
	for i < len(t.sites) || j < len(prev.sites) {
		i0, j0 := i, j
		for i < len(t.sites) && j < len(prev.sites) && t.sites[i] == prev.sites[j] {
			d.FromPrev[i], d.ToNew[j] = int32(j), int32(i)
			i++
			j++
		}
		copy(t.vecs[i0:i], prev.vecs[j0:j])
		c := 0
		switch {
		case i == len(t.sites) && j == len(prev.sites):
			continue
		case i == len(t.sites):
			c = 1
		case j == len(prev.sites):
			c = -1
		default:
			c = CompareSites(t.sites[i], prev.sites[j])
		}
		if c <= 0 {
			d.FromPrev[i] = -1
			d.Added = append(d.Added, int32(i))
			i++
		}
		if c >= 0 {
			d.ToNew[j] = -1
			d.Dropped = append(d.Dropped, int32(j))
			j++
		}
	}
	t.sorted = true
	for _, i := range d.Added {
		if i > 0 && CompareSites(t.sites[i-1], t.sites[i]) > 0 ||
			int(i) < len(t.sites)-1 && CompareSites(t.sites[i], t.sites[i+1]) > 0 {
			t.sorted = false
			break
		}
	}
	return d
}

// covers reports whether t's sites access exactly the objects prev's
// Interner holds, and if so sets t.refs. A kept site (d.FromPrev) accesses
// what it did before; each dropped site takes one from the count of every
// ID it used, and each new site, all of whose objects must be interned
// already, adds one. The object sets are equal when no count falls to zero.
func (prev *SiteTable) covers(t *SiteTable, d *TableDiff) bool {
	for _, i := range d.Added {
		for _, list := range [2][]*Access{t.sites[i].Before, t.sites[i].After} {
			for _, a := range list {
				if _, ok := prev.in.ids[a.Object]; !ok {
					return false
				}
			}
		}
	}
	refs := slices.Clone(prev.refs)
	for _, j := range d.Dropped {
		for _, u := range prev.vecs[j].Usages {
			refs[u.ID]--
		}
	}
	for _, i := range d.Added {
		for _, u := range prev.in.ObjUsages(t.sites[i]) {
			refs[u.ID]++
		}
	}
	for _, j := range d.Dropped {
		for _, u := range prev.vecs[j].Usages {
			if refs[u.ID] == 0 {
				return false
			}
		}
	}
	t.refs = refs
	return true
}

// countRefs counts t.refs over the sites' usage vectors, unless covers
// derived them.
func (t *SiteTable) countRefs() {
	if t.refs != nil {
		return
	}
	t.refs = make([]int32, t.in.Len())
	for _, v := range t.vecs {
		for _, u := range v.Usages {
			t.refs[u.ID]++
		}
	}
}

// Interner returns the table's object interner.
func (t *SiteTable) Interner() *Interner { return t.in }

// Sites returns the table's sites in index order.
func (t *SiteTable) Sites() []*Site { return t.sites }

// Vecs returns the vectors of the site at index i.
func (t *SiteTable) Vecs(i int) *SiteVecs { return t.vecs[i] }

// AllVecs returns every site's vectors, indexed like Sites. The slice is
// the table's own: callers must not modify it.
func (t *SiteTable) AllVecs() []*SiteVecs { return t.vecs }

// Stats reports what the table carried over from the previous one.
func (t *SiteTable) Stats() TableStats { return t.stats }

// Index returns the index of site s, and whether the table holds it.
func (t *SiteTable) Index(s *Site) (int, bool) {
	if t.sorted {
		i, _ := slices.BinarySearchFunc(t.sites, s, CompareSites)
		for ; i < len(t.sites) && CompareSites(t.sites[i], s) == 0; i++ {
			if t.sites[i] == s {
				return i, true
			}
		}
		return 0, false
	}
	t.atOnce.Do(func() {
		t.at = make(map[*Site]int32, len(t.sites))
		for i, s := range t.sites {
			t.at[s] = int32(i)
		}
	})
	i, ok := t.at[s]
	return int(i), ok
}
