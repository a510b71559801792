// Site dedup and canonical order.
//
// A run's sites derive from the last run's siteRecord, part of the run
// record (see AnalyzeParallel). At InterprocDepth 0 they are every file's,
// in canonical order: a run merges the sites of the files whose sites
// changed into the record's sorted list in place of their old ones, so
// equal-ID sites of different files (a header's barrier seen by each file
// including it) all stay.
//
// At InterprocDepth ≥ 1 cross-file splicing makes one physical barrier
// visible from every file that splices its function, so a run keeps one
// view per site ID: the richest, the first in file order on ties
// (per-file extraction already keeps one view per ID within a file). A run
// re-chooses only the IDs that the units whose sites changed carried or
// carry now, then merges the new winners into the record's sorted list.
// Either way a cold run derives from an empty record.
package ofence

import (
	"slices"

	"ofence/internal/access"
	"ofence/internal/pages"
)

// siteRecord is one run's sites. It is never mutated after publication,
// so a project and its clones share it.
type siteRecord struct {
	// names and units are every file's name and extracted sites, by
	// position. A record derived from another copies only the units pages
	// of the files whose sites changed.
	names []string
	units pages.Array[[]*access.Site]
	// carriers maps each site ID to the positions, ascending, of the
	// units whose sites carry it; nil at depth 0, which keeps every site.
	carriers map[string][]int32
	// sites are the run's sites in canonical order (access.CompareSites).
	sites []*access.Site
}

// deriveSites returns the record of files' current sites, derived from
// prev, and how many site IDs it chose a view for again: with dedup set,
// one view per site ID (depth ≥ 1), else every site. prev is not modified;
// when nothing changed it is returned as is.
func deriveSites(prev *siteRecord, files []*FileUnit, dedup bool) (*siteRecord, int) {
	if prev == nil || !sameNames(prev.names, files) {
		none := pages.Derive(nil, len(files), nil, func(int) []*access.Site { return nil })
		prev = &siteRecord{names: make([]string, len(files)), units: none.Array()}
		for i, fu := range files {
			prev.names[i] = fu.Name
		}
	}
	var changed []int32
	for i, fu := range files {
		if !sameSites(*prev.units.At(i), fu.Sites) {
			changed = append(changed, int32(i))
		}
	}
	if len(changed) == 0 {
		return prev, 0
	}
	units := pages.NewWriter(prev.units)
	for _, i := range changed {
		units.Set(int(i), files[i].Sites)
	}
	next := &siteRecord{names: prev.names, units: units.Array(), carriers: prev.carriers}
	var drop []int
	var add []*access.Site
	rechosen := 0
	if dedup {
		drop, add, rechosen = next.rechoose(prev, changed)
	} else {
		for _, i := range changed {
			for _, s := range *prev.units.At(int(i)) {
				drop = append(drop, prev.find(s))
			}
			add = append(add, *next.units.At(int(i))...)
		}
	}
	slices.Sort(drop)
	access.SortSites(add)
	next.sites = mergeSites(prev.sites, drop, add)
	return next, rechosen
}

// rechoose chooses a view again for every site ID the changed units
// carried in prev or carry in r, and updates r's carriers. It returns the
// positions in prev.sites of the old winners that lost, the new winners,
// and how many IDs it chose for.
func (r *siteRecord) rechoose(prev *siteRecord, changed []int32) (drop []int, add []*access.Site, n int) {
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
		old, cur := *prev.units.At(int(i)), *r.units.At(int(i))
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
		r.carriers = make(map[string][]int32, len(prev.carriers)+len(ids))
		for id, l := range prev.carriers {
			r.carriers[id] = l
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
				delete(r.carriers, id)
			} else {
				r.carriers[id] = l
			}
		}
	}
	for _, id := range ids {
		was, now := prev.choose(id), r.choose(id)
		if was == now {
			continue
		}
		if was != nil {
			drop = append(drop, prev.find(was))
		}
		if now != nil {
			add = append(add, now)
		}
	}
	return drop, add, len(ids)
}

// find returns the position of site s in r.sites.
func (r *siteRecord) find(s *access.Site) int {
	j, _ := slices.BinarySearchFunc(r.sites, s, access.CompareSites)
	for r.sites[j] != s {
		j++
	}
	return j
}

// choose returns the richest view of site ID id among the record's units,
// the first in file order on ties, or nil when no unit carries it.
func (r *siteRecord) choose(id string) *access.Site {
	var best *access.Site
	for _, u := range r.carriers[id] {
		for _, s := range *r.units.At(int(u)) {
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
