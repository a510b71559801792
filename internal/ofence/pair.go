package ofence

import (
	"cmp"
	"context"
	"slices"
	"sync"

	"ofence/internal/access"
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
//   - a completed run publishes a pairRecord, and the next run starts from
//     it (incremental pairing). The dirty object set D is the objects of
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
	// Margins maps a writer site ID (Site.ID) to its candidate-weight
	// margin: the winning weight and the best PROBED alternative. The
	// confidence ranker (internal/rank) uses the margin as evidence of how
	// decisively the pairing won. The runner-up is optimistic — candidate
	// pairs skipped by the weight lower bound are never probed, so a true
	// runner-up can be missed — which only ever overstates the margin.
	// A run whose margins equal the previous run's shares that run's map,
	// so one map can back several Results and the project's pair record:
	// it is read-only, and callers must not modify it.
	Margins map[string]PairMargin
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
	// ObjectsDirty is the size of the dirty object set of a warm run: the
	// objects of the sites the edit added or dropped.
	ObjectsDirty int
}

// PairMargin is one writer's winning candidate weight and the lowest weight
// any other probed partner site achieved (-1 when no alternative partner
// was probed: a decisive win).
type PairMargin struct {
	Weight   int
	RunnerUp int
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
	// influences candidate selection — it only feeds PairStats.Margins.
	second int
}

// contributes reports whether the candidate gives its writer a
// PairStats.Margins entry.
func (c *candidate) contributes() bool {
	return c.writer && !c.implicit && c.other >= 0
}

// pairRecord is one completed run's pairing state, indexed like the site
// table it was built over. It is never mutated after publication, so a
// project and its clones share it.
type pairRecord struct {
	// fp is the ungated options fingerprint the run paired under.
	fp  string
	tbl *access.SiteTable
	// bests[i] is site i's candidate.
	bests []candidate
	// post, off and minW are the run's inverted index (see pairer).
	post      []siteRef
	off, minW []int32
	// common holds the common-object IDs of the mutual-best pairs.
	common []uint32
	// pairings are the run's pairings as its result holds them after
	// check (see AnalyzeParallel), finals the same by site index (sites
	// holds their site lists), and pairingOf[i] one more than the index of
	// the pairing whose writer is site i, or 0.
	pairings  []*Pairing
	finals    []finalPairing
	sites     []int32
	pairingOf []int32
	// margins is the run's PairStats.Margins.
	margins map[string]PairMargin
}

// pairScratch holds the working arrays of a run that no record keeps.
// Runs recycle them through scratchPool, so a warm run does not allocate
// them afresh.
type pairScratch struct {
	heard, next, last, slots, leader []int32
	paired, dirty                    []bool
	pres                             []prePairing
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
	tbl   *access.SiteTable
	sites []*access.Site
	opts  Options

	// in is the project-level interned-object table; all slices below are
	// keyed by its dense IDs.
	in *access.Interner
	// vecs holds each site's interned vectors from the run's site table:
	// its generic-filtered, ID-sorted object/distance set (the objDist maps
	// of the reference formulation) and its sorted window-side IDs, so the
	// Orders check is two binary searches.
	vecs []*access.SiteVecs
	// post and off are the inverted pairing index: object o's postings,
	// sorted by canonical site index, are post[off[o]:off[o+1]].
	post []siteRef
	off  []int32
	// minW[o] is the minimum posting weight of object o: the lower bound
	// any candidate's distance weight for o can contribute.
	minW []int32
	// bests[i] is site i's candidate.
	bests []candidate

	// fp is the ungated options fingerprint, recorded in rec. prev and
	// diff, when set, are the last completed run's record and this run's
	// site table diff against that record's table (see derive).
	fp   string
	prev *pairRecord
	diff *access.TableDiff
	// rec is this run's record, set when run completes.
	rec *pairRecord

	stats PairStats
}

// newPairer builds the pairing engine for a cold run over a site table
// whose sites are in canonical position order.
func newPairer(tbl *access.SiteTable, opts Options) *pairer {
	if opts.MinSharedObjects <= 0 {
		opts.MinSharedObjects = 2
	}
	ts := tbl.Stats()
	return &pairer{
		tbl:   tbl,
		sites: tbl.Sites(),
		opts:  opts,
		in:    tbl.Interner(),
		vecs:  tbl.AllVecs(),
		stats: PairStats{InternerReused: ts.InternerReused, SitesVectorized: ts.Vectorized},
	}
}

// derive makes pr's run start from prev, the record of the last completed
// run, whose table is prevTable, when the record is valid for it: prev was
// paired under the same ungated fingerprint fp (which covers the generic
// filter and MinSharedObjects), over prevTable, and d is non-nil — the
// run's table reused prevTable's interner under the same generic filter, so
// every kept site's vectors, and every object ID, are as prev saw them.
// Otherwise the run is cold. Either way the run records fp.
func (pr *pairer) derive(prev *pairRecord, prevTable *access.SiteTable, d *access.TableDiff, fp string) {
	pr.fp = fp
	if prev != nil && d != nil && prev.fp == fp && prev.tbl == prevTable {
		pr.prev, pr.diff = prev, d
	}
}

// postings returns object o's postings.
func (pr *pairer) postings(o uint32) []siteRef {
	return pr.post[pr.off[o]:pr.off[o+1]]
}

// isWriteSide reports whether the site plays the write-barrier role.
func isWriteSide(s *access.Site) bool {
	return s.Kind.OrdersWrites()
}

// run executes Algorithm 1 and returns pairings, unpaired sites, and
// implicit-IPC writers, and sets pr.rec. Everything order-sensitive
// happens after the candidate search, in canonical site order. A canceled
// run returns nothing and records nothing.
func (pr *pairer) run(ctx context.Context) (pairings []*Pairing, unpaired, implicit []*access.Site) {
	var todo []int32
	if pr.prev != nil {
		todo = pr.deriveIndex()
	} else {
		todo = pr.buildIndex()
	}
	pr.search(ctx, todo)
	if ctx.Err() != nil {
		return nil, nil, nil
	}
	return pr.link(ctx)
}

// buildIndex builds the inverted index with one counting pass, so postings
// land in exactly-sized windows of one backing array in ascending site
// order, and returns every writer for the search.
func (pr *pairer) buildIndex() (todo []int32) {
	nObj := pr.in.Len()
	pr.off = make([]int32, nObj+1)
	for _, v := range pr.vecs {
		for _, od := range v.Objs {
			pr.off[od.ID+1]++
		}
	}
	for o := 0; o < nObj; o++ {
		pr.off[o+1] += pr.off[o]
	}
	pr.post = make([]siteRef, pr.off[nObj])
	pr.minW = make([]int32, nObj)
	next := slices.Clone(pr.off[:nObj])
	for i, v := range pr.vecs {
		for _, od := range v.Objs {
			w := weightOf32(od.Dist)
			pr.post[next[od.ID]] = siteRef{site: int32(i), w: w}
			next[od.ID]++
			if mw := pr.minW[od.ID]; mw == 0 || w < mw {
				pr.minW[od.ID] = w
			}
		}
	}
	pr.bests = make([]candidate, len(pr.sites))
	for i, s := range pr.sites {
		pr.bests[i] = candidate{other: -1, weight: -1, second: -1, writer: isWriteSide(s)}
		if pr.bests[i].writer {
			todo = append(todo, int32(i))
		}
	}
	return todo
}

// deriveIndex derives the inverted index and the candidates from the
// previous run's record and returns the writers to search: the new ones
// and those whose objects meet the dirty set D, the objects of the sites
// the table diff added or dropped. A clean object's postings are the
// record's, renumbered (kept sites keep their relative order); a dirty
// one's merge the record's kept postings with the added sites'.
func (pr *pairer) deriveIndex() (todo []int32) {
	prev, d := pr.prev, pr.diff
	nObj := pr.in.Len()
	sc := scratchPool.Get().(*pairScratch)
	defer scratchPool.Put(sc)
	sc.dirty = zeroed(sc.dirty, nObj)
	dirty := sc.dirty
	var dirtyIDs []uint32
	markDirty := func(objs []access.ObjDist) {
		for _, od := range objs {
			if !dirty[od.ID] {
				dirty[od.ID] = true
				dirtyIDs = append(dirtyIDs, od.ID)
			}
		}
	}
	for _, j := range d.Dropped {
		markDirty(prev.tbl.Vecs(int(j)).Objs)
	}
	type objRef struct {
		o   uint32
		ref siteRef
	}
	var added []objRef
	for _, i := range d.Added {
		markDirty(pr.vecs[i].Objs)
		for _, od := range pr.vecs[i].Objs {
			added = append(added, objRef{od.ID, siteRef{site: i, w: weightOf32(od.Dist)}})
		}
	}
	slices.SortStableFunc(added, func(a, b objRef) int { return cmp.Compare(a.o, b.o) })
	pr.stats.ObjectsDirty = len(dirtyIDs)

	pr.off = make([]int32, nObj+1)
	pr.post = make([]siteRef, 0, len(prev.post)+len(added))
	pr.minW = slices.Clone(prev.minW)
	for o := 0; o < nObj; o++ {
		pr.off[o] = int32(len(pr.post))
		old := prev.post[prev.off[o]:prev.off[o+1]]
		if !dirty[o] {
			for _, r := range old {
				pr.post = append(pr.post, siteRef{site: d.ToNew[r.site], w: r.w})
			}
			continue
		}
		var mw int32
		for len(old) > 0 || len(added) > 0 && added[0].o == uint32(o) {
			var r siteRef
			if len(old) > 0 && (len(added) == 0 || added[0].o != uint32(o) || d.ToNew[old[0].site] < added[0].ref.site) {
				r = siteRef{site: d.ToNew[old[0].site], w: old[0].w}
				old = old[1:]
				if r.site < 0 {
					continue // dropped
				}
			} else {
				r = added[0].ref
				added = added[1:]
			}
			pr.post = append(pr.post, r)
			if mw == 0 || r.w < mw {
				mw = r.w
			}
		}
		pr.minW[o] = mw
	}
	pr.off[nObj] = int32(len(pr.post))

	// A kept writer whose objects avoid D keeps its candidate: its partner
	// holds the writer's winning objects, so it was kept too.
	pr.bests = make([]candidate, len(pr.sites))
	for j, i := range d.ToNew {
		if i >= 0 {
			c := prev.bests[j]
			if c.other >= 0 {
				c.other = d.ToNew[c.other]
			}
			pr.bests[i] = c
		}
	}
	for _, i := range d.Added {
		pr.bests[i] = candidate{other: -1, weight: -1, second: -1, writer: isWriteSide(pr.sites[i])}
		if pr.bests[i].writer {
			todo = append(todo, i)
		}
	}
	for _, o := range dirtyIDs {
		for _, r := range pr.postings(o) {
			if pr.bests[r.site].writer {
				todo = append(todo, r.site)
			}
		}
	}
	slices.Sort(todo)
	return slices.Compact(todo)
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
// barrier orders the wake-up; it is left unpaired.
func (pr *pairer) resolve(i int32) {
	c, o1, o2 := pr.bestFor(i)
	c.writer = true
	if wake := pr.sites[i].WakeUpAfter; wake >= 0 {
		c.implicit = c.other < 0 || wake <= pr.minObjDist(int(i), o1, o2)
	}
	pr.bests[i] = c
}

// prePairing is a mutual-best pair before the merge by common objects:
// its common-object IDs are common[clo:chi] and the sites the extension
// step added are members[mlo:mhi] of the run's buffers.
type prePairing struct {
	writer, partner int32
	weight          int
	clo, chi        int32
	mlo, mhi        int32
}

// finalPairing is a pairing after the merge, by site index: its sites are
// sites[lo:hi] and its common-object IDs common[clo:chi] of the run's
// buffers.
type finalPairing struct {
	lo, hi   int32
	clo, chi int32
	weight   int
}

// link is the pass after the search: the mutual-best handshake, the
// extension step and the merge by common objects, in canonical site order.
// It sets pr.rec, and returns nothing when ctx is canceled; ctx is checked
// every 1024 sites.
func (pr *pairer) link(ctx context.Context) (pairings []*Pairing, unpaired, implicit []*access.Site) {
	n := int32(len(pr.sites))
	rec := &pairRecord{fp: pr.fp, tbl: pr.tbl, bests: pr.bests, post: pr.post, off: pr.off, minW: pr.minW}
	sc := scratchPool.Get().(*pairScratch)
	defer scratchPool.Put(sc)
	// Handshake: each writer proposes to its candidate, which hears the
	// proposal back; every site keeps the first lowest-weight proposal in
	// writer order — the first-wins tie-break of per-site candidate lists.
	// heard[x] is one more than the writer of the proposal site x keeps,
	// or 0: the proposal weighs that writer's weight, and its other side
	// is the writer, or the writer's candidate when x is the writer.
	sc.heard = zeroed(sc.heard, int(n))
	heard := sc.heard
	propose := func(at, w int32) {
		if h := heard[at]; h == 0 || pr.bests[w].weight < pr.bests[h-1].weight {
			heard[at] = w + 1
		}
	}
	selects := func(x int32) int32 {
		if w := heard[x] - 1; w != x {
			return w
		}
		return pr.bests[x].other
	}
	proposals := 0
	for i := int32(0); i < n; i++ {
		if i&1023 == 0 && ctx.Err() != nil {
			return nil, nil, nil
		}
		if c := &pr.bests[i]; c.contributes() {
			propose(i, i)
			propose(c.other, i)
			proposals++
		}
	}

	// A pairing survives only when both sides still select each other.
	sc.paired = zeroed(sc.paired, int(n))
	paired := sc.paired
	pres := sc.pres[:0]
	for i := int32(0); i < n; i++ {
		if !pr.bests[i].writer || paired[i] {
			continue
		}
		partner := selects(i)
		if partner < 0 || selects(partner) != i {
			continue
		}
		weight := pr.bests[heard[i]-1].weight
		clo := int32(len(rec.common))
		rec.common = pr.appendCommon(rec.common, i, partner)
		pres = append(pres, prePairing{writer: i, partner: partner, weight: weight, clo: clo, chi: int32(len(rec.common))})
		paired[i], paired[partner] = true, true
	}
	sc.pres = pres
	pr.stats.Pruned = int64(2 * (proposals - len(pres)))
	commonOf := func(k int) []uint32 { return rec.common[pres[k].clo:pres[k].chi] }

	// Extension step: unpaired barriers whose object set contains the
	// pairing's common objects join the pairing (multi-barrier pairings).
	// The membership threshold is loop-invariant, so pairings that can
	// never accept members skip the pass entirely, and the scan walks only
	// the postings of the first common object — every site containing the
	// full common set necessarily appears there, in canonical order.
	var members []int32
	for k := range pres {
		pres[k].mlo = int32(len(members))
		if want := commonOf(k); len(want) >= pr.opts.MinSharedObjects { // want is non-empty
			for _, ref := range pr.postings(want[0]) {
				if !paired[ref.site] && containsAllIDs(pr.vecs[ref.site].Objs, want) {
					members = append(members, ref.site)
					paired[ref.site] = true
				}
			}
		}
		pres[k].mhi = int32(len(members))
	}

	// Pairings built over the same common-object set describe one protocol
	// (Figure 5: the seqcount duos form a single four-barrier pairing): the
	// first of each set keeps its place and absorbs the sites of the later
	// ones. next links each set's pairings in order.
	leader := groupByCommon(sc, len(pres), commonOf)
	sc.next, sc.last = zeroed(sc.next, len(pres)), zeroed(sc.last, len(pres))
	next, last := sc.next, sc.last
	for k := range pres {
		next[k], last[k] = -1, int32(k)
		if g := leader[k]; g != int32(k) {
			next[last[g]], last[g] = int32(k), int32(k)
		}
	}
	rec.pairingOf = make([]int32, n)
	rec.sites = make([]int32, 0, 2*len(pres)+len(members))
	rec.finals = make([]finalPairing, 0, len(pres))
	pairings = make([]*Pairing, 0, len(pres))
	for g := range pres {
		if leader[g] != int32(g) {
			continue
		}
		p := &pres[g]
		f := finalPairing{lo: int32(len(rec.sites)), clo: p.clo, chi: p.chi, weight: p.weight}
		rec.sites = append(append(rec.sites, p.writer, p.partner), members[p.mlo:p.mhi]...)
		for k := next[g]; k >= 0; k = next[k] {
			p := &pres[k]
			f.weight = min(f.weight, p.weight)
			rec.sites = appendNew(rec.sites, f.lo, p.writer)
			rec.sites = appendNew(rec.sites, f.lo, p.partner)
			for _, s := range members[p.mlo:p.mhi] {
				rec.sites = appendNew(rec.sites, f.lo, s)
			}
		}
		f.hi = int32(len(rec.sites))
		pg := pr.recordedPairing(f, rec)
		if pg != nil {
			pr.stats.PairingsReused++
		} else {
			pg = &Pairing{Sites: make([]*access.Site, f.hi-f.lo), Common: make([]access.Object, f.chi-f.clo), Weight: f.weight}
			for x, s := range rec.sites[f.lo:f.hi] {
				pg.Sites[x] = pr.sites[s]
			}
			for x, id := range rec.common[f.clo:f.chi] {
				pg.Common[x] = pr.in.Object(id)
			}
		}
		pairings = append(pairings, pg)
		rec.pairingOf[p.writer] = int32(len(pairings))
		rec.finals = append(rec.finals, f)
	}

	for i, s := range pr.sites {
		switch {
		case pr.bests[i].implicit:
			implicit = append(implicit, s)
		case !paired[i]:
			unpaired = append(unpaired, s)
		}
	}

	pr.stats.Margins = pr.margins()
	rec.margins = pr.stats.Margins
	pr.rec = rec
	return pairings, unpaired, implicit
}

// appendNew appends s to list unless list[from:] holds it.
func appendNew(list []int32, from int32, s int32) []int32 {
	if slices.Contains(list[from:], s) {
		return list
	}
	return append(list, s)
}

// recordedPairing returns the previous run's pairing of f's writer when it
// has exactly f's sites, common objects and weight, else nil.
func (pr *pairer) recordedPairing(f finalPairing, rec *pairRecord) *Pairing {
	if pr.prev == nil {
		return nil
	}
	sites := rec.sites[f.lo:f.hi]
	j := pr.diff.FromPrev[sites[0]]
	if j < 0 || pr.prev.pairingOf[j] == 0 {
		return nil
	}
	k := pr.prev.pairingOf[j] - 1
	old := &pr.prev.finals[k]
	if old.weight != f.weight || old.hi-old.lo != f.hi-f.lo ||
		!slices.Equal(pr.prev.common[old.clo:old.chi], rec.common[f.clo:f.chi]) {
		return nil
	}
	for x, s := range pr.prev.sites[old.lo:old.hi] {
		if pr.diff.ToNew[s] != sites[x] {
			return nil
		}
	}
	return pr.prev.pairings[k]
}

// groupByCommon returns, for each of n pairings, the index of the first
// pairing whose common-object set (commonOf) is equal, found through an
// open-addressed table indexed by the top bits of a multiplicative hash.
// Its arrays are sc's.
func groupByCommon(sc *pairScratch, n int, commonOf func(k int) []uint32) []int32 {
	bits := 1
	for 1<<bits < 2*n {
		bits++
	}
	size := 1 << bits
	sc.slots = zeroed(sc.slots, size)
	slots := sc.slots
	for i := range slots {
		slots[i] = -1
	}
	sc.leader = zeroed(sc.leader, n)
	leader := sc.leader
	for k := 0; k < n; k++ {
		ids := commonOf(k)
		h := uint64(14695981039346656037)
		for _, id := range ids {
			h = (h ^ uint64(id)) * 0x9E3779B97F4A7C15
		}
		for at := int(h >> (64 - bits)); ; at = (at + 1) & (size - 1) {
			g := slots[at]
			if g < 0 {
				slots[at], leader[k] = int32(k), int32(k)
				break
			}
			if slices.Equal(commonOf(int(g)), ids) {
				leader[k] = g
				break
			}
		}
	}
	return leader
}

// margins builds PairStats.Margins from every writer's candidate: a later
// writer with the same site ID overwrites an earlier one's entry. The map
// is sized for its entries up front, so it never grows. A run whose
// writers give the same entries, in the same order, as the previous run's
// shares that run's map.
func (pr *pairer) margins() map[string]PairMargin {
	if pr.sameMargins() {
		return pr.prev.margins
	}
	n := 0
	for i := range pr.bests {
		if pr.bests[i].contributes() {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	m := make(map[string]PairMargin, n)
	for i := range pr.bests {
		if c := &pr.bests[i]; c.contributes() {
			m[pr.sites[i].ID()] = PairMargin{Weight: c.weight, RunnerUp: c.second}
		}
	}
	return m
}

// sameMargins reports whether the writers that contribute a margin entry
// give, in site order, the same site IDs, weights and runner-ups as those
// of the previous run's record.
func (pr *pairer) sameMargins() bool {
	prev := pr.prev
	if prev == nil {
		return false
	}
	prevSites := prev.tbl.Sites()
	j := 0
	next := func() {
		for j < len(prev.bests) && !prev.bests[j].contributes() {
			j++
		}
	}
	for i := range pr.bests {
		c := &pr.bests[i]
		if !c.contributes() {
			continue
		}
		next()
		if j == len(prev.bests) {
			return false
		}
		if p := &prev.bests[j]; c.weight != p.weight || c.second != p.second || pr.sites[i].ID() != prevSites[j].ID() {
			return false
		}
		j++
	}
	next()
	return j == len(prev.bests)
}

// bestFor finds write barrier b's lowest-weight candidate partner:
// foreach (o1, o2) in make_pairs(b->objs), intersect the two objects'
// postings, keeping the candidate with the lowest distance product. A pair
// whose weight lower bound cannot beat the best found so far is skipped
// before touching the index. o1 and o2 are the winning object pair.
func (pr *pairer) bestFor(b int32) (best candidate, bo1, bo2 uint32) {
	objs := pr.vecs[b].Objs
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
			if best.weight >= 0 && myWeight*int(pr.minW[o1])*int(pr.minW[o2]) >= best.weight {
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
			if best.weight >= 0 && myWeight*int(pr.minW[od.ID]) >= best.weight {
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
	before, after := pr.vecs[s].Before, pr.vecs[s].After
	return (access.ContainsID(before, o1) && access.ContainsID(after, o2)) ||
		(access.ContainsID(before, o2) && access.ContainsID(after, o1))
}

// minObjDist returns the smallest distance at which site i accesses any of
// the given objects, or a huge sentinel when it accesses none.
func (pr *pairer) minObjDist(i int, objs ...uint32) int {
	min := -1
	for _, o := range objs {
		if d, ok := access.FindDist(pr.vecs[i].Objs, o); ok && (min < 0 || int(d) < min) {
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
	la, lb := pr.vecs[a].Objs, pr.vecs[b].Objs
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
// implicit-IPC writers, plus the engine's execution counters. The sites are
// re-sorted into canonical position order internally, so the result does
// not depend on input order. This is the
// entry point for pairing-only tooling and benchmarks, and the cold oracle
// of incremental pairing; AnalyzeParallel routes through the same engine.
func PairSites(ctx context.Context, sites []*access.Site, opts Options) (pairings []*Pairing, unpaired, implicit []*access.Site, stats PairStats) {
	sorted := make([]*access.Site, len(sites))
	copy(sorted, sites)
	sortSites(sorted)
	tbl, _ := access.BuildSiteTable(nil, sorted, opts.GenericStructs)
	pr := newPairer(tbl, opts)
	pairings, unpaired, implicit = pr.run(ctx)
	return pairings, unpaired, implicit, pr.stats
}
