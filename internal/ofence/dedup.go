// Site dedup and canonical order.
//
// At InterprocDepth 0 a run's sites are every file's, in canonical order.
// The project keeps the last depth-0 run's order as an immutable
// orderRecord, and a run merges the sites of the files whose sites changed
// into it in place of their old ones.
//
// At InterprocDepth ≥ 1 cross-file splicing makes one physical barrier
// visible from every file that splices its function, so a run keeps one
// view per site ID: the richest, the first in file order on ties
// (per-file extraction already keeps one view per ID within a file). The project keeps the last
// completed run's choice as an immutable dedupRecord, like the site table
// and the pair record, and a run re-chooses only the IDs that the units
// whose sites changed carried or carry now, then merges the new winners
// into the record's sorted list. A cold run derives from an empty record.
package ofence

import (
	"slices"

	"ofence/internal/access"
)

// orderRecord is one depth-0 run's sites. It is never mutated after
// publication, so a project and its clones share it.
type orderRecord struct {
	// names and units are every file's name and extracted sites, by
	// position.
	names []string
	units unitSites
	// sites are every unit's sites in canonical order (access.CompareSites).
	sites []*access.Site
}

// deriveOrder returns the record of files' current sites, derived from
// prev: the sites of the units whose sites changed leave the sorted list
// and their new sites merge in. prev is not modified; when nothing changed
// it is returned as is.
func deriveOrder(prev *orderRecord, files []*FileUnit) *orderRecord {
	if prev == nil || !sameNames(prev.names, files) {
		prev = &orderRecord{names: make([]string, len(files)), units: newUnitSites(len(files))}
		for i, fu := range files {
			prev.names[i] = fu.Name
		}
	}
	var next *orderRecord
	var drop []int
	var add []*access.Site
	for i, fu := range files {
		if sameSites(prev.units.at(i), fu.Sites) {
			continue
		}
		if next == nil {
			next = &orderRecord{names: prev.names, units: prev.units.clone()}
		}
		for _, s := range prev.units.at(i) {
			j, _ := slices.BinarySearchFunc(prev.sites, s, access.CompareSites)
			for prev.sites[j] != s {
				j++
			}
			drop = append(drop, j)
		}
		add = append(add, fu.Sites...)
		next.units.set(prev.units, i, fu.Sites)
	}
	if next == nil {
		return prev
	}
	slices.Sort(drop)
	access.SortSites(add)
	next.sites = mergeSites(prev.sites, drop, add)
	return next
}

// dedupRecord is one run's deduplicated sites. It is never mutated after
// publication, so a project and its clones share it.
type dedupRecord struct {
	// names and units are every file's name and extracted sites, by
	// position.
	names []string
	units unitSites
	// carriers maps each site ID to the positions, ascending, of the
	// units whose sites carry it.
	carriers map[string][]int32
	// sites are the chosen views in canonical order (access.CompareSites).
	sites []*access.Site
}

// deriveDedup returns the record of files' current sites, derived from
// prev, and how many site IDs it chose a view for again. prev is not
// modified; when nothing changed it is returned as is.
func deriveDedup(prev *dedupRecord, files []*FileUnit) (*dedupRecord, int) {
	if prev == nil || !sameNames(prev.names, files) {
		prev = &dedupRecord{names: make([]string, len(files)), units: newUnitSites(len(files))}
		for i, fu := range files {
			prev.names[i] = fu.Name
		}
	}
	var changed []int32
	for i, fu := range files {
		if !sameSites(prev.units.at(i), fu.Sites) {
			changed = append(changed, int32(i))
		}
	}
	if len(changed) == 0 {
		return prev, 0
	}
	next := &dedupRecord{names: prev.names, units: prev.units.clone(), carriers: prev.carriers}

	// The IDs to choose again, in first-seen order, and per ID the
	// changed units that carry it now, ascending.
	index := map[string]int{}
	var ids []string
	var adds [][]int32
	touch := func(id string) int {
		k, ok := index[id]
		if !ok {
			k = len(ids)
			index[id] = k
			ids = append(ids, id)
			adds = append(adds, nil)
		}
		return k
	}
	moved := false // whether some changed unit's IDs changed
	for _, i := range changed {
		old, cur := prev.units.at(int(i)), files[i].Sites
		next.units.set(prev.units, int(i), cur)
		moved = moved || !sameIDs(old, cur)
		for _, s := range old {
			touch(s.ID())
		}
		for _, s := range cur {
			k := touch(s.ID())
			adds[k] = append(adds[k], i)
		}
	}
	if moved {
		// The changed units' carriers entries are rebuilt in a copy of the
		// map; the lists it shares with prev are never written.
		next.carriers = make(map[string][]int32, len(prev.carriers)+len(ids))
		for id, l := range prev.carriers {
			next.carriers[id] = l
		}
		for k, id := range ids {
			var l []int32
			for _, u := range prev.carriers[id] {
				if _, ok := slices.BinarySearch(changed, u); !ok {
					l = append(l, u)
				}
			}
			l = append(l, adds[k]...)
			slices.Sort(l)
			if len(l) == 0 {
				delete(next.carriers, id)
			} else {
				next.carriers[id] = l
			}
		}
	}

	// The new winners replace the old ones in the sorted list.
	var drop []int
	var add []*access.Site
	for _, id := range ids {
		was, now := prev.choose(id), next.choose(id)
		if was == now {
			continue
		}
		if was != nil {
			j, _ := slices.BinarySearchFunc(prev.sites, was, access.CompareSites)
			drop = append(drop, j)
		}
		if now != nil {
			add = append(add, now)
		}
	}
	slices.Sort(drop)
	slices.SortFunc(add, access.CompareSites)
	next.sites = mergeSites(prev.sites, drop, add)
	return next, len(ids)
}

// choose returns the richest view of site ID id among the record's units,
// the first in file order on ties, or nil when no unit carries it.
func (r *dedupRecord) choose(id string) *access.Site {
	var best *access.Site
	for _, u := range r.carriers[id] {
		for _, s := range r.units.at(int(u)) {
			if s.ID() == id {
				if best == nil || s.Richness() > best.Richness() {
					best = s
				}
				break
			}
		}
	}
	return best
}

// unitSites are every file's extracted sites, by position, in pages of
// unitPage files, so that a record derived from another copies only the
// pages of the files whose sites changed.
type unitSites struct {
	pages []*[unitPage][]*access.Site
}

// unitPage is the number of files a unitSites page holds.
const unitPage = 64

// newUnitSites returns the unitSites of n files with no sites.
func newUnitSites(n int) unitSites {
	u := unitSites{pages: make([]*[unitPage][]*access.Site, (n+unitPage-1)/unitPage)}
	for p := range u.pages {
		u.pages[p] = new([unitPage][]*access.Site)
	}
	return u
}

// at returns the sites of file i.
func (u unitSites) at(i int) []*access.Site {
	return u.pages[i/unitPage][i%unitPage]
}

// clone returns a unitSites sharing every page with u.
func (u unitSites) clone() unitSites {
	return unitSites{pages: slices.Clone(u.pages)}
}

// set makes sites file i's, first copying the page that holds it while u
// shares that page with prev, the record u was cloned from.
func (u unitSites) set(prev unitSites, i int, sites []*access.Site) {
	p := i / unitPage
	if u.pages[p] == prev.pages[p] {
		cp := *u.pages[p]
		u.pages[p] = &cp
	}
	u.pages[p][i%unitPage] = sites
}

// mergeSites returns sorted with the sites at indices drop (ascending)
// left out and the sites of add (in canonical order, none in sorted)
// merged in, as a new slice.
func mergeSites(sorted []*access.Site, drop []int, add []*access.Site) []*access.Site {
	out := make([]*access.Site, 0, len(sorted)-len(drop)+len(add))
	last := 0
	for len(drop) > 0 || len(add) > 0 {
		at := len(sorted)
		if len(add) > 0 {
			at, _ = slices.BinarySearchFunc(sorted, add[0], access.CompareSites)
		}
		if len(drop) > 0 && drop[0] < at {
			out = append(out, sorted[last:drop[0]]...)
			last, drop = drop[0]+1, drop[1:]
			continue
		}
		out = append(out, sorted[last:at]...)
		out = append(out, add[0])
		last, add = at, add[1:]
	}
	return append(out, sorted[last:]...)
}

// sameNames reports whether names are files' names, in order.
func sameNames(names []string, files []*FileUnit) bool {
	if len(names) != len(files) {
		return false
	}
	for i, fu := range files {
		if names[i] != fu.Name {
			return false
		}
	}
	return true
}

// sameSites reports whether a and b are the same slice. Extracted site
// lists are never modified, so the same slice means the same sites.
func sameSites(a, b []*access.Site) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// sameIDs reports whether a and b carry the same site IDs in order.
func sameIDs(a, b []*access.Site) bool {
	return slices.EqualFunc(a, b, func(x, y *access.Site) bool { return x.ID() == y.ID() })
}
