package access

import (
	"cmp"
	"slices"
	"strings"

	"ofence/internal/pages"
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
// access, plus each site's interned vectors. Its sites are in canonical
// order (CompareSites), so Index binary-searches them and the next table
// is aligned with this one by one merge walk. A table is immutable once
// built, so it may be shared between runs and between projects; the next
// run derives its own table from it with BuildSiteTable.
type SiteTable struct {
	in    *Interner
	sites []*Site
	// vecs holds the sites' vectors by index. A derived table shares every
	// page of the previous one whose sites it keeps at their indices.
	vecs pages.Array[*SiteVecs]
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

// Keeps reports whether every index in [lo, hi) holds the site the
// previous table held there. Kept sites keep their relative order, so with
// no added site in the range, the ends decide.
func (d *TableDiff) Keeps(lo, hi int) bool {
	if d.FromPrev[lo] != int32(lo) || d.FromPrev[hi-1] != int32(hi-1) {
		return false
	}
	k, _ := slices.BinarySearch(d.Added, int32(lo))
	return k == len(d.Added) || d.Added[k] >= int32(hi)
}

// DiffFromEmpty returns the diff of a table of n sites from the empty
// table: every site is added.
func DiffFromEmpty(n int) *TableDiff {
	d := &TableDiff{FromPrev: make([]int32, n), Added: make([]int32, n)}
	for i := range n {
		d.FromPrev[i], d.Added[i] = -1, int32(i)
	}
	return d
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

// BuildSiteTable builds the table over sites in canonical order: sites
// itself when it is in that order already, else a sorted (SortSites) copy,
// so the caller must not modify sites afterwards. With a previous table (a
// nil one makes the build cold), the previous Interner is reused when the
// sites access exactly its object set. IDs are a pure function of the
// object set (InternSites sorts it), so reuse yields the very IDs a fresh
// build would assign. When the Interner is reused and the generic-struct
// filter is unchanged, every site pointer the previous table holds keeps
// its vectors (sites are immutable once extracted; the filter is part of
// the key because Objs depends on it), and the diff says which ones those
// are; otherwise the diff is nil. Only the other sites are vectorized, and
// prev is never modified.
//
// One merge walk matches the two tables' sites (see align); no map is
// built. The walk matches kept sites in the previous table's order, which
// is canonical, so two adjacent kept sites are in order already: the order
// is checked only at the seams, where an added site meets its neighbours.
// A cold build checks every neighbour pair, and a failed seam sorts a copy
// and walks again. The table shares every page of vectors whose sites the
// diff keeps at their indices.
func BuildSiteTable(prev *SiteTable, sites []*Site, generic []string) (*SiteTable, *TableDiff) {
	t := &SiteTable{
		sites:   sites,
		generic: strings.Join(generic, "\x00"),
	}
	var d *TableDiff
	if prev != nil {
		d = align(prev, t)
	}
	if !t.sortedAtSeams(d) {
		t.sites = slices.Clone(sites)
		SortSites(t.sites)
		if prev != nil {
			d = align(prev, t)
		}
	}
	sites = t.sites
	if d != nil && prev.covers(t, d) {
		t.in, t.stats.InternerReused = prev.in, true
	} else {
		t.in = InternSites(sites)
	}
	skip := make(map[string]bool, len(generic))
	for _, g := range generic {
		skip[g] = true
	}
	keep := func(o Object) bool { return !skip[o.Struct] }
	vectorize := func(i int) *SiteVecs {
		s := sites[i]
		return &SiteVecs{
			Objs:   t.in.ObjDists(s, keep),
			Before: t.in.SideIDs(s.Before),
			After:  t.in.SideIDs(s.After),
			Usages: t.in.ObjUsages(s),
		}
	}
	// Every kept site's vectors carry over, but they hold only under the
	// same Interner and generic filter.
	if t.stats.InternerReused && prev.generic == t.generic {
		w := pages.Derive(prev.vecs, len(sites), d.Keeps, func(i int) *SiteVecs {
			if j := d.FromPrev[i]; j >= 0 {
				return prev.Vecs(int(j))
			}
			return vectorize(i)
		})
		t.vecs, t.stats.Vectorized = w.Array(), len(d.Added)
	} else {
		d = nil
		w := pages.Derive(nil, len(sites), nil, vectorize)
		t.vecs, t.stats.Vectorized = w.Array(), len(sites)
	}
	t.countRefs()
	return t, d
}

// align matches t's sites with prev's, which are in canonical order, by
// one merge walk. Kept sites are matched in prev's order whatever t's
// order is; BuildSiteTable checks the rest.
func align(prev, t *SiteTable) *TableDiff {
	d := &TableDiff{FromPrev: make([]int32, len(t.sites)), ToNew: make([]int32, len(prev.sites))}
	i, j := 0, 0
	for i < len(t.sites) || j < len(prev.sites) {
		for i < len(t.sites) && j < len(prev.sites) && t.sites[i] == prev.sites[j] {
			d.FromPrev[i], d.ToNew[j] = int32(j), int32(i)
			i++
			j++
		}
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
	return d
}

// sortedAtSeams reports whether t's sites are in canonical order, given
// the diff align made of them (nil for a cold build, which compares every
// neighbour pair). Kept sites follow one another in the previous table's
// order, so only the pairs that hold an added site are compared.
func (t *SiteTable) sortedAtSeams(d *TableDiff) bool {
	if d == nil {
		return slices.IsSortedFunc(t.sites, CompareSites)
	}
	for _, i := range d.Added {
		if i > 0 && CompareSites(t.sites[i-1], t.sites[i]) > 0 ||
			int(i)+1 < len(t.sites) && CompareSites(t.sites[i], t.sites[i+1]) > 0 {
			return false
		}
	}
	return true
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
		for _, u := range prev.Vecs(int(j)).Usages {
			refs[u.ID]--
		}
	}
	for _, i := range d.Added {
		for _, u := range prev.in.ObjUsages(t.sites[i]) {
			refs[u.ID]++
		}
	}
	for _, j := range d.Dropped {
		for _, u := range prev.Vecs(int(j)).Usages {
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
	for i := range t.sites {
		for _, u := range t.Vecs(i).Usages {
			t.refs[u.ID]++
		}
	}
}

// Interner returns the table's object interner.
func (t *SiteTable) Interner() *Interner { return t.in }

// Sites returns the table's sites in index order.
func (t *SiteTable) Sites() []*Site { return t.sites }

// Vecs returns the vectors of the site at index i.
func (t *SiteTable) Vecs(i int) *SiteVecs { return *t.vecs.At(i) }

// Stats reports what the table carried over from the previous one.
func (t *SiteTable) Stats() TableStats { return t.stats }

// Index returns the index of site s, and whether the table holds it.
func (t *SiteTable) Index(s *Site) (int, bool) {
	i, _ := slices.BinarySearchFunc(t.sites, s, CompareSites)
	for ; i < len(t.sites) && CompareSites(t.sites[i], s) == 0; i++ {
		if t.sites[i] == s {
			return i, true
		}
	}
	return 0, false
}
