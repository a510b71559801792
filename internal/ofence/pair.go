package ofence

import (
	"cmp"
	"context"
	"slices"
	"sync"

	"ofence/internal/access"
	"ofence/internal/pages"
)

// This file is the pairing engine: Algorithm 1 rebuilt for kernel-scale
// site sets. The paper's reference formulation keeps an obj_to_barriers
// hash of map[Object][]*Site and re-derives a candidate set per (o1, o2)
// object pair, which at tens of thousands of barrier sites makes pairing
// the dominant analysis phase. The engine here keeps the algorithm's
// results byte-identical while changing the data layer and execution model:
//
//   - objects are interned into dense uint32 IDs (internal/access.Interner)
//     assigned in canonical (struct, field) order, so every per-site object
//     set is a sorted ID slice and set operations are merge scans;
//   - the interner and those per-site vectors form the run's site table
//     (access.SiteTable), which ranking reads too and the project's next
//     run derives its own from, so a warm edit re-vectorizes only the
//     sites it changed;
//   - an inverted index objectID → ID-sorted postings (each carrying the
//     precomputed distance weight), in one backing array, replaces
//     get_pair's per-call set allocation with a two-pointer intersection;
//   - a per-(o1, o2) lower bound — the site's own weight times the minimum
//     indexed weight of each object — skips candidate pairs that cannot
//     beat the best candidate found so far (counted as
//     candidates_pruned_bound);
//   - the whole engine runs on the analysis goroutine: each writer's
//     candidate search reads only the immutable index, and everything
//     order-sensitive runs afterwards in one pass in canonical site order
//     (DESIGN §12 has the numbers that retired the sharded search);
//   - the pass after the search (the mutual-best handshake, the extension
//     step and the merge by common objects) keeps no per-site candidate
//     lists and no string-keyed maps: each site keeps the first
//     lowest-weight proposal in writer order, and pairings with equal
//     common sets meet in an open-addressed table;
//   - a completed run publishes a pairRecord, kept in fixed-size pages,
//     and the next run derives from it (incremental pairing), sharing
//     every page the edit left as it was; a cold run derives from the
//     empty record, every site added. The dirty object set D is the objects of
//     every site the edit added or dropped; only new writers and writers
//     whose objects meet D are searched again. Any other writer's search
//     reads only the postings and minimum weights of objects outside D,
//     which hold the same kept sites in the same relative order, so its
//     recorded candidate is still exact. A pairing equal to the recorded
//     pairing of its writer — the same sites, common objects and weight —
//     keeps the recorded *Pairing, so check's comparison is a pointer test.
//
// Ties between equal-weight candidates are broken by canonical site order
// (access.CompareSites, total over one analysis's sites): the two-pointer
// scans run in ascending site order and keep the first minimum, so the
// earliest site wins — stable across map-iteration order.

// PairStats reports the pairing engine's execution counters for one run.
type PairStats struct {
	// IndexProbes counts inverted-index intersections this run's search
	// actually performed (get_pair/get_single calls that survived the bound
	// cutoff).
	IndexProbes int64
	// PrunedBound counts candidate object pairs this run's search skipped
	// because their weight lower bound could not beat the current best
	// candidate.
	PrunedBound int64
	// Pruned counts tentative pairing candidates that did not survive the
	// mutual-best handshake (the pre-existing candidates_pruned counter).
	Pruned int64
	// InternerReused reports that the run's site table kept the previous
	// run's object interner: the edit left the tree's set of
	// (struct, field) objects unchanged.
	InternerReused bool
	// SitesVectorized counts the sites whose interned vectors the run built
	// fresh; every other site's vectors carried over from the previous run.
	SitesVectorized int
	// WritersSearched counts the write barriers whose candidate search
	// ran: every writer on a cold run, the new writers and those whose
	// objects an edit touched on a warm one.
	WritersSearched int
	// PairingsReused counts the pairings kept from the previous run's
	// record as they were.
	PairingsReused int
	// ObjectsDirty counts the recorded objects whose postings the run
	// rebuilt: the objects of the sites the edit added or dropped. It is 0
	// on a cold run, whose empty record has no postings.
	ObjectsDirty int
}

// siteRef is one inverted-index posting: a site (by canonical index) that
// accesses the object, with the precomputed weight of its closest access.
type siteRef struct {
	site int32
	w    int32
}

// candidate is a site's search outcome: for a writer, the best tentative
// partner found, by index.
type candidate struct {
	other int32 // canonical site index, or -1 for none
	// writer marks a write-side site, the only kind that searches.
	// implicit marks a writer left unpaired because a wake-up call closer
	// than the pairing's shared objects orders it (implicit IPC, §4.2).
	writer, implicit bool
	weight           int
	// second is the lowest weight any probed partner OTHER than `other`
	// achieved during the search, or -1 when none was probed. It never
	// influences candidate selection: it is the writer's margin, the
	// ranker's evidence of how decisively the pairing won (see
	// verdicts.margin). It is optimistic — candidate pairs skipped by the
	// weight lower bound are never probed, so a true runner-up can be
	// missed — which only ever overstates the margin.
	second int
}

// proposes reports whether the candidate's writer proposes to its partner
// in the handshake: it has one, and is not left to an implicit IPC.
func (c *candidate) proposes() bool {
	return c.writer && !c.implicit && c.other >= 0
}

// margin is the writer's margin as the ranker reads it: the runner-up
// weight of a proposing candidate, else -1.
func (c *candidate) margin() int {
	if c.proposes() {
		return c.second
	}
	return -1
}

// postPage is the inverted index of pages.Len consecutive object IDs, in
// one CSR layout rather than a pages.Array: with l = o%pages.Len, object
// o's postings, sorted by site index, are post[off[l]:off[l+1]], and
// minW[l] is their minimum weight: the lower bound any candidate's
// distance weight for o can contribute.
type postPage struct {
	off  [pages.Len + 1]int32
	minW [pages.Len]int32
	post []siteRef
}

// postings returns object o's postings.
func (pg *postPage) postings(o uint32) []siteRef {
	l := o & (pages.Len - 1)
	return pg.post[pg.off[l]:pg.off[l+1]]
}

// pairRecord is one completed run's pairing state, indexed like the site
// table it was built over. It is never mutated after publication, so a
// project and its clones share it, and the next run's record shares every
// page of it that the edit left as it was. The zero value is the empty
// record a cold run derives from.
type pairRecord struct {
	// bests holds each site's candidate.
	bests pages.Array[candidate]
	// index is the run's inverted index, by object ID.
	index []*postPage
	// finals holds the run's pairings in result order, and pairingOf[i] one
	// more than the index of the pairing whose writer is site i, or 0.
	finals    pages.Array[finalPairing]
	pairingOf pages.Array[int32]
}

// postings returns object o's postings in the record's inverted index;
// the empty record has none.
func (rec *pairRecord) postings(o uint32) []siteRef {
	if int(o>>pages.Bits) >= len(rec.index) {
		return nil
	}
	return rec.index[o>>pages.Bits].postings(o)
}

// pairScratch holds the working arrays of a run that no record keeps.
// Runs recycle them through scratchPool, so a warm run does not allocate
// them afresh.
type pairScratch struct {
	heard, next, last, slots, leader, at, group, pairingOf, sites []int32
	paired, dirty, dirtyPage                                      []bool
	added                                                         []siteRef
	pres                                                          []prePairing
}

var scratchPool = sync.Pool{New: func() any { return new(pairScratch) }}

// zeroed returns s resized to n zero values, reusing its storage when it
// is large enough.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

type pairer struct {
	sites []*access.Site
	opts  Options

	// in is the project-level interned-object table; object IDs below are
	// its dense IDs.
	in *access.Interner
	// tbl is the run's site table, which holds each site's interned
	// vectors (vecs): its generic-filtered, ID-sorted object/distance set
	// (the objDist maps of the reference formulation) and its sorted
	// window-side IDs, so the Orders check is two binary searches.
	tbl *access.SiteTable
	// index is the run's inverted pairing index, by object ID (see
	// postPage).
	index []*postPage
	// bests holds each site's candidate.
	bests pages.Writer[candidate]

	// prev is the record the run derives from, built over the table
	// prevTbl, and diff the run's table's diff from prevTbl. moves reports
	// that some kept site has another index than it had in prevTbl.
	prev    *pairRecord
	prevTbl *access.SiteTable
	diff    *access.TableDiff
	moves   bool
	// remargined lists the writers whose candidate search moved their
	// margin, ascending. A writer that was not searched keeps its
	// candidate, and so its margin.
	remargined []int32
	// from[k] is the index of the previous run's pairing that pairing k
	// keeps, or -1.
	from []int32
	// sc is the run's scratch, held while it runs.
	sc *pairScratch
	// rec is this run's record, set when run completes.
	rec *pairRecord

	stats PairStats
}

// newPairer builds the pairing engine for a run over tbl that derives from
// the pairing of the run record from — the last completed run's under the
// same options, or the empty record — with d the diff of tbl from that
// record's table. Every kept site's vectors and every object ID are as the
// record saw them: such a diff exists only when tbl reused that table's
// interner and generic filter.
func newPairer(tbl *access.SiteTable, opts Options, from *runRecord, d *access.TableDiff) *pairer {
	if opts.MinSharedObjects <= 0 {
		opts.MinSharedObjects = 2
	}
	ts := tbl.Stats()
	return &pairer{
		sites:   tbl.Sites(),
		opts:    opts,
		in:      tbl.Interner(),
		tbl:     tbl,
		prev:    from.pairs,
		prevTbl: from.table,
		diff:    d,
		stats:   PairStats{InternerReused: ts.InternerReused, SitesVectorized: ts.Vectorized},
	}
}

// vecs returns site i's vectors.
func (pr *pairer) vecs(i int32) *access.SiteVecs { return pr.tbl.Vecs(int(i)) }

// postings returns object o's postings.
func (pr *pairer) postings(o uint32) []siteRef {
	return pr.index[o>>pages.Bits].postings(o)
}

// minW returns the minimum posting weight of object o.
func (pr *pairer) minW(o uint32) int32 {
	return pr.index[o>>pages.Bits].minW[o&(pages.Len-1)]
}

// best returns site i's candidate, read-only.
func (pr *pairer) best(i int32) *candidate { return pr.bests.At(int(i)) }

// isWriteSide reports whether the site plays the write-barrier role.
func isWriteSide(s *access.Site) bool {
	return s.Kind.OrdersWrites()
}

// run executes Algorithm 1 and returns pairings, unpaired sites, and
// implicit-IPC writers, and sets pr.rec. Everything order-sensitive
// happens after the candidate search, in canonical site order. A canceled
// run returns nothing and records nothing.
func (pr *pairer) run(ctx context.Context) (pairings []*Pairing, unpaired, implicit []*access.Site) {
	pr.sc = scratchPool.Get().(*pairScratch)
	defer func() {
		scratchPool.Put(pr.sc)
		pr.sc = nil
	}()
	pr.search(ctx, pr.deriveIndex())
	if ctx.Err() != nil {
		return nil, nil, nil
	}
	return pr.link(ctx)
}

// deriveIndex derives the candidates and the inverted index from the
// record the run derives from and returns the writers to search, in
// ascending order: the new ones and those whose objects meet the dirty set
// D, the objects of the sites the table diff added or dropped.
//
// Both derive page by page. A candidate page is the record's when each of
// its sites is kept at the index it had and, if some kept site moved, no
// candidate in it names a partner that moved or was dropped; other pages
// are copied with partners renumbered. A kept writer whose partner the
// edit dropped is left with none: that partner held the writer's winning
// objects, which are then in D, so the writer is among their postings,
// where its candidate is cleared (in a shared page it still names the
// partner's index, which an added site holds now) and it is searched
// again. An index page is the record's when it holds no object of D and,
// if some kept site moved, no posting of a moved site. In a page built
// afresh a clean object's postings are the record's, renumbered (kept
// sites keep their relative order), and a dirty one's merge the record's
// kept postings with the added sites'. On a cold run
// every site is added and every object with postings is dirty, so this is
// one counting pass over the sites' vectors.
func (pr *pairer) deriveIndex() (todo []int32) {
	prev, d := pr.prev, pr.diff
	n, nObj := len(pr.sites), pr.in.Len()
	// With the same added and dropped indices, every kept site keeps its
	// index.
	pr.moves = !slices.Equal(d.Added, d.Dropped)
	sc := pr.sc

	keeps := func(lo, hi int) bool {
		return d.Keeps(lo, hi) && (!pr.moves || !pr.namesMoved(prev.bests[lo>>pages.Bits][:hi-lo]))
	}
	pr.bests = pages.Derive(prev.bests, n, keeps, func(i int) candidate {
		j := d.FromPrev[i]
		if j < 0 {
			return candidate{other: -1, weight: -1, second: -1, writer: isWriteSide(pr.sites[i])}
		}
		c := *prev.bests.At(int(j))
		if c.other >= 0 {
			c.other = d.ToNew[c.other]
		}
		return c
	})
	for _, i := range d.Added {
		if pr.best(i).writer {
			todo = append(todo, i)
		}
	}
	added0 := len(todo)

	nPages := pages.NumPages(nObj)
	sc.dirty, sc.dirtyPage = zeroed(sc.dirty, nObj), zeroed(sc.dirtyPage, nPages)
	dirty := sc.dirty
	markDirty := func(objs []access.ObjDist) {
		for _, od := range objs {
			dirty[od.ID], sc.dirtyPage[od.ID>>pages.Bits] = true, true
		}
	}
	for _, j := range d.Dropped {
		markDirty(pr.prevTbl.Vecs(int(j)).Objs)
	}
	// The added sites' postings, bucketed by object with one counting pass
	// over the IDs [lo, hi) they hold: object o's are
	// added[at[o-lo]:at[o-lo+1]], in ascending site order.
	lo, hi := nObj, 0
	for _, i := range d.Added {
		objs := pr.vecs(i).Objs
		markDirty(objs)
		if len(objs) > 0 {
			lo, hi = min(lo, int(objs[0].ID)), max(hi, int(objs[len(objs)-1].ID)+1)
		}
	}
	hi = max(hi, lo)
	sc.at = zeroed(sc.at, hi-lo+2)
	at := sc.at
	for _, i := range d.Added {
		for _, od := range pr.vecs(i).Objs {
			at[int(od.ID)-lo+2]++
		}
	}
	for o := 2; o < len(at); o++ {
		at[o] += at[o-1]
	}
	sc.added = zeroed(sc.added, int(at[len(at)-1]))
	added := sc.added
	for _, i := range d.Added {
		for _, od := range pr.vecs(i).Objs {
			added[at[int(od.ID)-lo+1]] = siteRef{site: i, w: weightOf32(od.Dist)}
			at[int(od.ID)-lo+1]++
		}
	}
	addedOf := func(o int) []siteRef {
		if o < lo || o >= hi {
			return nil
		}
		return added[at[o-lo]:at[o-lo+1]]
	}

	pr.index = make([]*postPage, nPages)
	for q := range pr.index {
		olo, ohi := q<<pages.Bits, min((q+1)<<pages.Bits, nObj)
		var old *postPage
		if q < len(prev.index) {
			old = prev.index[q]
		}
		if old != nil && !sc.dirtyPage[q] && (!pr.moves || !pr.postsMoved(old)) {
			pr.index[q] = old
			continue
		}
		pg := &postPage{}
		var oldPost []siteRef
		if old != nil {
			oldPost = old.post
		}
		nAdd := 0
		if a, b := max(olo, lo), min(ohi, hi); a < b {
			nAdd = int(at[b-lo] - at[a-lo])
		}
		pg.post = make([]siteRef, 0, len(oldPost)+nAdd)
		for o := olo; o < ohi; o++ {
			l := o - olo
			pg.off[l] = int32(len(pg.post))
			var oldPosts []siteRef
			if old != nil {
				oldPosts = old.postings(uint32(o))
			}
			if !dirty[o] {
				for _, r := range oldPosts {
					pg.post = append(pg.post, siteRef{site: d.ToNew[r.site], w: r.w})
				}
				if old != nil {
					pg.minW[l] = old.minW[l]
				}
				continue
			}
			if len(oldPosts) > 0 {
				pr.stats.ObjectsDirty++
			}
			add := addedOf(o)
			var mw int32
			for len(oldPosts) > 0 || len(add) > 0 {
				var r siteRef
				if len(oldPosts) > 0 && (len(add) == 0 || d.ToNew[oldPosts[0].site] < add[0].site) {
					r = siteRef{site: d.ToNew[oldPosts[0].site], w: oldPosts[0].w}
					oldPosts = oldPosts[1:]
					if r.site < 0 {
						continue // dropped
					}
					if c := pr.best(r.site); c.writer {
						todo = append(todo, r.site) // a kept writer on a dirty object
						if c.other >= 0 && d.FromPrev[c.other] < 0 {
							pr.bests.Mut(int(r.site)).other = -1
						}
					}
				} else {
					r, add = add[0], add[1:]
				}
				pg.post = append(pg.post, r)
				if mw == 0 || r.w < mw {
					mw = r.w
				}
			}
			pg.minW[l] = mw
		}
		for l := ohi - olo; l <= pages.Len; l++ {
			pg.off[l] = int32(len(pg.post))
		}
		pr.index[q] = pg
	}
	if len(todo) > added0 {
		slices.Sort(todo)
		todo = slices.Compact(todo)
	}
	return todo
}

// namesMoved reports whether one of the record's candidates cs names a
// partner that moved or that the edit dropped.
func (pr *pairer) namesMoved(cs []candidate) bool {
	for _, c := range cs {
		if c.other >= 0 && pr.diff.ToNew[c.other] != c.other {
			return true
		}
	}
	return false
}

// postsMoved reports whether a record index page holds a posting of a kept
// site that moved. A page with no dirty object holds no dropped site.
func (pr *pairer) postsMoved(pg *postPage) bool {
	for _, r := range pg.post {
		if pr.diff.ToNew[r.site] != r.site {
			return true
		}
	}
	return false
}

// search runs the candidate search for the writers in todo. ctx is
// checked before each writer.
func (pr *pairer) search(ctx context.Context, todo []int32) {
	pr.stats.WritersSearched = len(todo)
	for _, i := range todo {
		if ctx.Err() != nil {
			return // canceled: analyze surfaces the error after the phase
		}
		pr.resolve(i)
	}
}

// resolve searches writer i's candidate and applies the implicit-IPC check
// (§4.2): when the wake-up call is closer to the barrier than the
// pairing's shared objects, or the writer has no candidate at all, the
// barrier orders the wake-up; it is left unpaired. A candidate the search
// finds again leaves its page as it is.
func (pr *pairer) resolve(i int32) {
	c, o1, o2 := pr.bestFor(i)
	c.writer = true
	if wake := pr.sites[i].WakeUpAfter; wake >= 0 {
		c.implicit = c.other < 0 || wake <= pr.minObjDist(int(i), o1, o2)
	}
	old := pr.best(i)
	if c.margin() != old.margin() {
		pr.remargined = append(pr.remargined, i)
	}
	if c != *old {
		pr.bests.Set(int(i), c)
	}
}

// prePairing is a mutual-best pair before the merge by common objects,
// with its common-object IDs, the sites the extension step added to it
// (members[mlo:mhi] of the run's buffer), and the index of the pairing of
// the record whose writer and partner it has, or -1: such a pre-pairing
// reads its common objects from that pairing, and keptGrouped is that
// pairing's grouped. Common objects found afresh are commons[clo:chi] of
// the run's buffer until it stops growing.
type prePairing struct {
	writer, partner int32
	weight          int
	common          []uint32
	clo, chi        int32
	mlo, mhi        int32
	kept            int32
	keptGrouped     bool
	// alone reports that no site but the writer and the partner holds the
	// common objects, and keptAlone that the recorded pairing's leader was
	// alone.
	alone, keptAlone bool
}

// finalPairing is a pairing after the merge, by site index in the
// numbering of the record that holds it: its sites (writer and partner
// first), its common-object IDs, its weight and its *Pairing. grouped marks
// a pairing that absorbed another pre-pairing with the same common
// objects, and alone a leader pre-pairing that was alone (see prePairing).
// Records share an entry, and its sites, while they do not move.
type finalPairing struct {
	writer, partner int32
	grouped, alone  bool
	weight          int
	sites           []int32
	common          []uint32
	pg              *Pairing
}

// sameFinal reports whether two entries are one: the same *Pairing over
// the same site list, with the same marks.
func sameFinal(a, b *finalPairing) bool {
	return a.pg == b.pg && a.grouped == b.grouped && a.alone == b.alone && &a.sites[0] == &b.sites[0]
}

// link is the pass after the search: the mutual-best handshake, the
// extension step and the merge by common objects, in canonical site order.
// It sets pr.rec, and returns nothing when ctx is canceled; ctx is checked
// every 1024 sites. A pre-pairing with the record's writer and partner
// takes the record's common objects, and a pairing equal to the record's
// keeps its *Pairing, and its entry while its sites do not move.
func (pr *pairer) link(ctx context.Context) (pairings []*Pairing, unpaired, implicit []*access.Site) {
	n := int32(len(pr.sites))
	sc := pr.sc
	// Handshake: each writer proposes to its candidate, which hears the
	// proposal back; every site keeps the first lowest-weight proposal in
	// writer order — the first-wins tie-break of per-site candidate lists.
	// heard[x] is one more than the writer of the proposal site x keeps,
	// or 0: the proposal weighs that writer's weight, and its other side
	// is the writer, or the writer's candidate when x is the writer.
	sc.heard = zeroed(sc.heard, int(n))
	heard, bests := sc.heard, pr.bests.Array()
	propose := func(at, w int32) {
		if h := heard[at]; h == 0 || bests.At(int(w)).weight < bests.At(int(h-1)).weight {
			heard[at] = w + 1
		}
	}
	selects := func(x int32) int32 {
		if w := heard[x] - 1; w != x {
			return w
		}
		return bests.At(int(x)).other
	}
	proposals := 0
	for i := int32(0); i < n; i++ {
		if i&1023 == 0 && ctx.Err() != nil {
			return nil, nil, nil
		}
		if c := bests.At(int(i)); c.proposes() {
			propose(i, i)
			propose(c.other, i)
			proposals++
		} else if c.implicit {
			implicit = append(implicit, pr.sites[i])
		}
	}

	// A pairing survives only when both sides still select each other.
	// Common objects found afresh go to commons, which the record keeps.
	sc.paired = zeroed(sc.paired, int(n))
	paired := sc.paired
	pres := sc.pres[:0]
	var commons []uint32
	for i := int32(0); i < n; i++ {
		if paired[i] || !bests.At(int(i)).writer {
			continue
		}
		partner := selects(i)
		if partner < 0 || selects(partner) != i {
			continue
		}
		pres = append(pres, prePairing{writer: i, partner: partner, weight: bests.At(int(heard[i] - 1)).weight, kept: -1})
		p := &pres[len(pres)-1]
		if k, f := pr.recordedPre(i, partner); f != nil {
			p.kept, p.common, p.keptGrouped, p.keptAlone = k, f.common, f.grouped, f.alone
		} else {
			p.clo = int32(len(commons))
			commons = pr.appendCommon(commons, i, partner)
			p.chi = int32(len(commons))
		}
		paired[i], paired[partner] = true, true
	}
	sc.pres = pres
	for k := range pres {
		if p := &pres[k]; p.kept < 0 {
			p.common = commons[p.clo:p.chi:p.chi]
		}
	}
	pr.stats.Pruned = int64(2 * (proposals - len(pres)))

	// Extension step: unpaired barriers whose object set contains the
	// pairing's common objects join the pairing (multi-barrier pairings).
	// The membership threshold is loop-invariant, so pairings that can
	// never accept members skip the pass entirely, and the scan walks only
	// the postings of the first common object — every site containing the
	// full common set necessarily appears there, in canonical order. A
	// kept pre-pairing that was alone stays alone unless the edit added a
	// site holding its common objects, which would hold the first one and
	// make it dirty; so it skips the scan too.
	var members []int32
	for k := range pres {
		p := &pres[k]
		p.mlo = int32(len(members))
		want := p.common // non-empty
		if p.alone = p.keptAlone && !sc.dirty[want[0]]; !p.alone && len(want) >= pr.opts.MinSharedObjects {
			p.alone = true
			for _, ref := range pr.postings(want[0]) {
				if ref.site == p.writer || ref.site == p.partner || !containsAllIDs(pr.vecs(ref.site).Objs, want) {
					continue
				}
				p.alone = false
				if !paired[ref.site] {
					members = append(members, ref.site)
					paired[ref.site] = true
				}
			}
		}
		p.mhi = int32(len(members))
	}

	// Pairings built over the same common-object set describe one protocol
	// (Figure 5: the seqcount duos form a single four-barrier pairing): the
	// first of each set keeps its place and absorbs the sites of the later
	// ones. next links each set's pairings in order.
	leader := pr.groupPres(sc, pres)
	sc.next, sc.last = zeroed(sc.next, len(pres)), zeroed(sc.last, len(pres))
	next, last := sc.next, sc.last
	for k := range pres {
		next[k], last[k] = -1, int32(k)
		if g := leader[k]; g != int32(k) {
			next[last[g]], last[g] = int32(k), int32(k)
		}
	}
	sc.pairingOf = zeroed(sc.pairingOf, int(n))
	finals := pages.NewWriter(pr.prev.finals)
	var siteBuf []int32
	buf := sc.sites[:0]
	pr.from = make([]int32, 0, len(pres))
	pairings = make([]*Pairing, 0, len(pres))
	for g := range pres {
		if leader[g] != int32(g) {
			continue
		}
		p := &pres[g]
		buf = append(append(buf[:0], p.writer, p.partner), members[p.mlo:p.mhi]...)
		weight, grouped := p.weight, false
		for k := next[g]; k >= 0; k = next[k] {
			q := &pres[k]
			weight, grouped = min(weight, q.weight), true
			buf = appendNew(buf, 0, q.writer)
			buf = appendNew(buf, 0, q.partner)
			for _, s := range members[q.mlo:q.mhi] {
				buf = appendNew(buf, 0, s)
			}
		}
		// Set field by field: a composite literal is built aside and then
		// copied, which per pairing costs more than the rest of this loop.
		var f finalPairing
		f.writer, f.partner, f.grouped, f.alone, f.weight, f.common = p.writer, p.partner, grouped, p.alone, weight, p.common
		from := pr.keptFinal(p, buf, weight)
		if from >= 0 {
			old := pr.prev.finals.At(int(from))
			f.pg = old.pg
			if !pr.moves || slices.Equal(old.sites, buf) {
				f.sites = old.sites
			}
		}
		if f.sites == nil {
			lo := len(siteBuf)
			siteBuf = append(siteBuf, buf...)
			f.sites = siteBuf[lo:len(siteBuf):len(siteBuf)]
		}
		if f.pg == nil {
			f.pg = &Pairing{Sites: make([]*access.Site, len(buf)), Common: make([]access.Object, len(p.common)), Weight: weight}
			for x, s := range buf {
				f.pg.Sites[x] = pr.sites[s]
			}
			for x, id := range p.common {
				f.pg.Common[x] = pr.in.Object(id)
			}
		}
		if from >= 0 {
			pr.stats.PairingsReused++
		}
		// An entry the record holds at the same index stays as it is.
		if k := int32(len(pairings)); k != from || !sameFinal(&f, pr.prev.finals.At(int(k))) {
			finals.Set(int(k), f)
		}
		pr.from = append(pr.from, from)
		pairings = append(pairings, f.pg)
		sc.pairingOf[p.writer] = int32(len(pairings))
	}
	sc.sites = buf

	// Implicit-IPC writers were listed in the handshake; they are never
	// unpaired.
	unpaired = make([]*access.Site, 0, len(pr.sites)-2*len(pres)-len(members))
	for i, ok := range paired {
		if !ok && !pr.best(int32(i)).implicit {
			unpaired = append(unpaired, pr.sites[i])
		}
	}

	pr.rec = &pairRecord{
		bests:     pr.bests.Array(),
		index:     pr.index,
		finals:    finals.Array()[:pages.NumPages(len(pairings))],
		pairingOf: pages.Equal(pr.prev.pairingOf, sc.pairingOf),
	}
	return pairings, unpaired, implicit
}

// appendNew appends s to list unless list[from:] holds it.
func appendNew(list []int32, from int32, s int32) []int32 {
	if slices.Contains(list[from:], s) {
		return list
	}
	return append(list, s)
}

// recordedPre returns the record's pairing whose writer and partner are
// kept as writer and partner, with its index, or -1 and nil.
func (pr *pairer) recordedPre(writer, partner int32) (int32, *finalPairing) {
	j := pr.diff.FromPrev[writer]
	if j < 0 {
		return -1, nil
	}
	k := *pr.prev.pairingOf.At(int(j)) - 1
	if k < 0 {
		return -1, nil
	}
	if f := pr.prev.finals.At(int(k)); pr.diff.ToNew[f.partner] == partner {
		return k, f
	}
	return -1, nil
}

// keptFinal returns the index of the record's pairing that the pairing of
// leader p, with sites and weight, keeps: one with the same sites, common
// objects and weight, whose *Pairing the new one is; else -1. The leader's
// writer and partner are the record pairing's (recordedPre), so only the
// sites after them, which only a grouped pairing or one with members has,
// are compared one by one.
func (pr *pairer) keptFinal(p *prePairing, sites []int32, weight int) int32 {
	if p.kept < 0 {
		return -1
	}
	f := pr.prev.finals.At(int(p.kept))
	if f.weight != weight || len(f.sites) != len(sites) {
		return -1
	}
	for x := 2; x < len(sites); x++ {
		if pr.diff.ToNew[f.sites[x]] != sites[x] {
			return -1
		}
	}
	return p.kept
}

// groupPres returns, for each pre-pairing, the first one with an equal
// common-object set. The record settles most of it: a kept pre-pairing
// (one with a recorded pairing) whose pairing absorbed no other had a set
// no other pre-pairing of the record had, and every kept pre-pairing has
// the set it had. So only the pre-pairings found afresh and the kept ones
// whose pairing was grouped meet in the hash table (groupByCommon), and a
// fresh one finds a kept ungrouped one with its set among the postings of
// its first common object, which that one's writer holds. Its arrays are
// sc's.
func (pr *pairer) groupPres(sc *pairScratch, pres []prePairing) []int32 {
	sc.group = sc.group[:0]
	keptAlone := false
	for k := range pres {
		if pres[k].kept < 0 || pres[k].keptGrouped {
			sc.group = append(sc.group, int32(k))
		} else {
			keptAlone = true
		}
	}
	leader := groupByCommon(sc, len(pres), sc.group, func(k int32) []uint32 { return pres[k].common })
	if !keptAlone || len(sc.group) == 0 {
		return leader
	}
	// redirect[l] is the kept pre-pairing that leads the set whose first
	// hashed pre-pairing is l.
	var redirect map[int32]int32
	for _, k := range sc.group {
		c := pres[k].common
		if pres[k].kept >= 0 {
			continue
		}
		for _, r := range pr.postings(c[0]) {
			// pres ascend by writer.
			at, ok := slices.BinarySearchFunc(pres, r.site, func(p prePairing, w int32) int { return cmp.Compare(p.writer, w) })
			g := int32(at)
			if !ok || pres[g].kept < 0 || pres[g].keptGrouped || !slices.Equal(pres[g].common, c) {
				continue
			}
			if l := leader[k]; g < l {
				if redirect == nil {
					redirect = map[int32]int32{}
				}
				redirect[l] = g
			} else {
				leader[g] = l
			}
			break
		}
	}
	for k, l := range leader {
		if g, ok := redirect[l]; ok {
			leader[k] = g
		}
	}
	return leader
}

// groupByCommon returns, for each of n pairings, the index of the first
// pairing of ks (ascending) whose common-object set (commonOf) is equal,
// found through an open-addressed table indexed by the top bits of a
// multiplicative hash; a pairing not in ks is its own. Its arrays are
// sc's.
func groupByCommon(sc *pairScratch, n int, ks []int32, commonOf func(k int32) []uint32) []int32 {
	sc.leader = zeroed(sc.leader, n)
	leader := sc.leader
	for k := range leader {
		leader[k] = int32(k)
	}
	bits := 1
	for 1<<bits < 2*len(ks) {
		bits++
	}
	size := 1 << bits
	sc.slots = zeroed(sc.slots, size)
	slots := sc.slots
	for i := range slots {
		slots[i] = -1
	}
	for _, k := range ks {
		ids := commonOf(k)
		h := uint64(14695981039346656037)
		for _, id := range ids {
			h = (h ^ uint64(id)) * 0x9E3779B97F4A7C15
		}
		for at := int(h >> (64 - bits)); ; at = (at + 1) & (size - 1) {
			g := slots[at]
			if g < 0 {
				slots[at] = k
				break
			}
			if slices.Equal(commonOf(g), ids) {
				leader[k] = g
				break
			}
		}
	}
	return leader
}

// bestFor finds write barrier b's lowest-weight candidate partner:
// foreach (o1, o2) in make_pairs(b->objs), intersect the two objects'
// postings, keeping the candidate with the lowest distance product. A pair
// whose weight lower bound cannot beat the best found so far is skipped
// before touching the index. o1 and o2 are the winning object pair.
func (pr *pairer) bestFor(b int32) (best candidate, bo1, bo2 uint32) {
	objs := pr.vecs(b).Objs
	best = candidate{other: -1, weight: -1, second: -1}
	// noteAlt records a probed-but-losing partner's weight for the margin
	// evidence. It never touches the selection state, so the winning
	// candidate — and therefore the pairing output — is unchanged by it.
	noteAlt := func(w int, site int32) {
		if site == best.other {
			return
		}
		if best.second < 0 || w < best.second {
			best.second = w
		}
	}
	for i := 0; i < len(objs); i++ {
		for j := i + 1; j < len(objs); j++ {
			o1, o2 := objs[i].ID, objs[j].ID
			myWeight := int(weightOf32(objs[i].Dist)) * int(weightOf32(objs[j].Dist))
			if best.weight >= 0 && myWeight*int(pr.minW(o1))*int(pr.minW(o2)) >= best.weight {
				pr.stats.PrunedBound++
				continue
			}
			pr.stats.IndexProbes++
			pair, pairWeight, alt, altWeight := pr.getPair(b, o1, o2)
			if pair < 0 {
				continue
			}
			w := myWeight * pairWeight
			if (best.weight < 0 || w < best.weight) &&
				(pr.orders(b, o1, o2) || pr.orders(pair, o1, o2)) {
				if best.other >= 0 && best.other != pair &&
					(best.second < 0 || best.weight < best.second) {
					best.second = best.weight // dethroned winner becomes runner-up
				}
				second := best.second
				best = candidate{other: pair, weight: w, second: second}
				bo1, bo2 = o1, o2
			} else {
				noteAlt(w, pair)
			}
			if alt >= 0 {
				// The intersection's own second-best site is a probed
				// alternative too — without it, a writer with exactly one
				// object pair would always look decisively paired.
				noteAlt(myWeight*altWeight, alt)
			}
		}
	}
	// Ablation path: with MinSharedObjects == 1, a single common object
	// suffices (the paper requires two; §6.4's precision depends on it).
	if pr.opts.MinSharedObjects == 1 && best.other < 0 {
		for _, od := range objs {
			myWeight := int(weightOf32(od.Dist))
			if best.weight >= 0 && myWeight*int(pr.minW(od.ID)) >= best.weight {
				pr.stats.PrunedBound++
				continue
			}
			pr.stats.IndexProbes++
			pair, pairWeight := pr.getSingle(b, od.ID)
			if pair < 0 {
				continue
			}
			w := myWeight * pairWeight
			if best.weight < 0 || w < best.weight {
				if best.other >= 0 && best.other != pair &&
					(best.second < 0 || best.weight < best.second) {
					best.second = best.weight
				}
				second := best.second
				best = candidate{other: pair, weight: w, second: second}
				bo1, bo2 = od.ID, od.ID
			} else {
				noteAlt(w, pair)
			}
		}
	}
	return best, bo1, bo2
}

// getPair implements get_pair of Algorithm 1 as a two-pointer intersection
// of the two objects' postings: the other site, surrounded by both o1 and
// o2, with the lowest distance product. Postings are in ascending canonical
// site order and the minimum is kept strictly, so equal-weight ties resolve
// to the earliest site — the engine's deterministic tie-break. The
// second-best site of the intersection (alt, altW) is returned for the
// margin evidence only; it never influences the selected pair.
func (pr *pairer) getPair(b int32, o1, o2 uint32) (match int32, bestW int, alt int32, altW int) {
	l1, l2 := pr.postings(o1), pr.postings(o2)
	bid := pr.sites[b].ID()
	match, bestW, alt, altW = -1, -1, -1, -1
	for i, j := 0, 0; i < len(l1) && j < len(l2); {
		if l1[i].site < l2[j].site {
			i++
			continue
		}
		if l1[i].site > l2[j].site {
			j++
			continue
		}
		s := l1[i].site
		if s != b && pr.sites[s].ID() != bid { // skip the same physical barrier
			w := int(l1[i].w) * int(l2[j].w)
			if bestW < 0 || w < bestW {
				alt, altW = match, bestW
				bestW, match = w, s
			} else if altW < 0 || w < altW {
				alt, altW = s, w
			}
		}
		i++
		j++
	}
	return match, bestW, alt, altW
}

// getSingle is the MinSharedObjects==1 ablation variant of getPair: the
// other site sharing just o, with the lowest distance. Same scan order and
// tie-break as getPair.
func (pr *pairer) getSingle(b int32, o uint32) (int32, int) {
	bid := pr.sites[b].ID()
	match, bestW := int32(-1), -1
	for _, ref := range pr.postings(o) {
		if ref.site == b || pr.sites[ref.site].ID() == bid {
			continue
		}
		if w := int(ref.w); bestW < 0 || w < bestW {
			bestW, match = w, ref.site
		}
	}
	return match, bestW
}

// orders is Site.Orders over interned side sets: one object accessed before
// the barrier and the other after (§4.2).
func (pr *pairer) orders(s int32, o1, o2 uint32) bool {
	v := pr.vecs(s)
	before, after := v.Before, v.After
	return (access.ContainsID(before, o1) && access.ContainsID(after, o2)) ||
		(access.ContainsID(before, o2) && access.ContainsID(after, o1))
}

// minObjDist returns the smallest distance at which site i accesses any of
// the given objects, or a huge sentinel when it accesses none.
func (pr *pairer) minObjDist(i int, objs ...uint32) int {
	min := -1
	for _, o := range objs {
		if d, ok := access.FindDist(pr.vecs(int32(i)).Objs, o); ok && (min < 0 || int(d) < min) {
			min = int(d)
		}
	}
	if min < 0 {
		return 1 << 30
	}
	return min
}

// appendCommon appends the merge of two sites' ID-sorted object sets to
// out. IDs are assigned in canonical (struct, field) order, so the merged
// result is already in the presentation order the JSON output serializes.
func (pr *pairer) appendCommon(out []uint32, a, b int32) []uint32 {
	la, lb := pr.vecs(a).Objs, pr.vecs(b).Objs
	for i, j := 0, 0; i < len(la) && j < len(lb); {
		switch {
		case la[i].ID < lb[j].ID:
			i++
		case la[i].ID > lb[j].ID:
			j++
		default:
			out = append(out, la[i].ID)
			i++
			j++
		}
	}
	return out
}

// containsAllIDs reports whether the ID-sorted object set contains every
// wanted ID (want is sorted ascending and non-empty).
func containsAllIDs(objs []access.ObjDist, want []uint32) bool {
	i := 0
	for _, w := range want {
		for i < len(objs) && objs[i].ID < w {
			i++
		}
		if i >= len(objs) || objs[i].ID != w {
			return false
		}
		i++
	}
	return true
}

// weightOf maps a distance to a multiplicative weight; distance 0 (the
// barrier's own combined access) weighs 1.
func weightOf(d int) int {
	if d <= 0 {
		return 1
	}
	return d
}

// weightOf32 is weightOf over the interned distance representation.
func weightOf32(d int32) int32 {
	if d <= 0 {
		return 1
	}
	return d
}

// PairSites runs the pairing engine (Algorithm 1) over already-extracted
// sites and returns the pairings, the sites left unpaired, and the
// implicit-IPC writers, plus the engine's execution counters. The site
// table sorts the sites into canonical position order, so the result does
// not depend on input order. This is the entry point for pairing-only
// tooling and benchmarks, and the cold oracle of incremental pairing;
// AnalyzeParallel routes through the same engine.
func PairSites(ctx context.Context, sites []*access.Site, opts Options) (pairings []*Pairing, unpaired, implicit []*access.Site, stats PairStats) {
	tbl, _ := access.BuildSiteTable(nil, sites, opts.GenericStructs)
	pr := newPairer(tbl, opts, emptyRun, access.DiffFromEmpty(len(tbl.Sites())))
	pairings, unpaired, implicit = pr.run(ctx)
	return pairings, unpaired, implicit, pr.stats
}
