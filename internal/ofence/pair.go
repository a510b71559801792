package ofence

import (
	"context"
	"encoding/binary"
	"runtime"
	"sync"
	"sync/atomic"

	"ofence/internal/access"
	"ofence/internal/obs"
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
//   - an inverted index objectID → ID-sorted []siteRef (each ref carrying
//     the precomputed distance weight) replaces get_pair's per-call set
//     allocation with a two-pointer intersection;
//   - a per-(o1, o2) lower bound — the site's own weight times the minimum
//     indexed weight of each object — skips candidate pairs that cannot
//     beat the best candidate found so far (counted as
//     candidates_pruned_bound);
//   - the per-write-barrier candidate search is sharded across a bounded
//     worker pool; because each site's best candidate depends only on the
//     immutable index, the shards race on nothing, and the tentative
//     candidates they produce are merged in canonical site order, so the
//     output is byte-identical to the sequential path at any GOMAXPROCS.
//
// Ties between equal-weight candidates are broken by canonical site order
// (the position-sorted order of the site slice): the two-pointer scans run
// in ascending site order and keep the first minimum, so the earliest site
// wins — stable across map-iteration and shard orders.

// PairStats reports the pairing engine's execution counters for one run.
type PairStats struct {
	// Shards is the number of worker shards the candidate search ran on
	// (1 when the site set is too small to be worth fanning out).
	Shards int
	// IndexProbes counts inverted-index intersections actually performed
	// (get_pair/get_single calls that survived the bound cutoff).
	IndexProbes int64
	// PrunedBound counts candidate object pairs skipped because their
	// weight lower bound could not beat the current best candidate.
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
	Margins map[string]PairMargin
	// InternerReused reports that the run's site table kept the previous
	// run's object interner: the edit left the tree's set of
	// (struct, field) objects unchanged.
	InternerReused bool
	// SitesVectorized counts the sites whose interned vectors the run built
	// fresh; every other site's vectors carried over from the previous run.
	SitesVectorized int
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

// candidate is the best tentative partner found for a site, by index.
type candidate struct {
	other  int32 // canonical site index, or -1 for none
	weight int
	o1, o2 uint32
	// second is the lowest weight any probed partner OTHER than `other`
	// achieved during the search, or -1 when none was probed. It never
	// influences candidate selection — it only feeds PairStats.Margins.
	second int
}

type pairer struct {
	sites   []*access.Site
	opts    Options
	workers int

	// in is the project-level interned-object table; all slices below are
	// keyed by its dense IDs.
	in *access.Interner
	// vecs holds each site's interned vectors from the run's site table:
	// its generic-filtered, ID-sorted object/distance set (the objDist maps
	// of the reference formulation) and its sorted window-side IDs, so the
	// Orders check is two binary searches.
	vecs []*access.SiteVecs
	// index is the inverted pairing index: objectID → postings sorted by
	// canonical site index.
	index [][]siteRef
	// minW[o] is the minimum posting weight of object o: the lower bound
	// any candidate's distance weight for o can contribute.
	minW []int32
	// ids caches Site.ID per site for the same-physical-barrier test.
	ids []string

	stats PairStats
}

// newPairer builds the pairing engine over a site table whose sites are in
// canonical position order.
func newPairer(tbl *access.SiteTable, opts Options) *pairer {
	if opts.MinSharedObjects <= 0 {
		opts.MinSharedObjects = 2
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sites := tbl.Sites()
	ts := tbl.Stats()
	pr := &pairer{
		sites:   sites,
		opts:    opts,
		workers: workers,
		in:      tbl.Interner(),
		vecs:    make([]*access.SiteVecs, len(sites)),
		ids:     make([]string, len(sites)),
		stats:   PairStats{InternerReused: ts.InternerReused, SitesVectorized: ts.Vectorized},
	}
	// Build the inverted index with one counting pass so postings land in
	// exactly-sized windows of one backing array, in ascending site order.
	counts := make([]int32, pr.in.Len())
	total := 0
	for i, s := range sites {
		pr.vecs[i] = tbl.Vecs(i)
		pr.ids[i] = s.ID()
		for _, od := range pr.vecs[i].Objs {
			counts[od.ID]++
		}
		total += len(pr.vecs[i].Objs)
	}
	postings := make([]siteRef, total)
	pr.index = make([][]siteRef, pr.in.Len())
	pr.minW = make([]int32, pr.in.Len())
	off := 0
	for o, c := range counts {
		pr.index[o] = postings[off : off : off+int(c)]
		off += int(c)
	}
	for i, v := range pr.vecs {
		for _, od := range v.Objs {
			w := weightOf32(od.Dist)
			pr.index[od.ID] = append(pr.index[od.ID], siteRef{site: int32(i), w: w})
			if mw := pr.minW[od.ID]; mw == 0 || w < mw {
				pr.minW[od.ID] = w
			}
		}
	}
	return pr
}

// forEachIndex fans fn out over indices [0, n) on a pool of workers
// goroutines, each claiming the next unclaimed index. Each index is passed
// to exactly one call, so results written per index are independent of
// scheduling.
func forEachIndex(n, workers int, fn func(i int)) {
	if workers <= 1 || n < 64 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// isWriteSide reports whether the site plays the write-barrier role.
func isWriteSide(s *access.Site) bool {
	return s.Kind.OrdersWrites()
}

// run executes Algorithm 1 and returns pairings, unpaired sites, and
// implicit-IPC writers. The candidate search is sharded across the worker
// pool; everything order-sensitive happens afterwards, single-threaded, in
// canonical site order.
func (pr *pairer) run(ctx context.Context) (pairings []*Pairing, unpaired, implicit []*access.Site) {
	n := len(pr.sites)
	bests := pr.computeBests(ctx)

	// Merge the per-shard tentative candidates deterministically: iterate
	// writers in canonical site order, exactly like the sequential
	// formulation's single loop.
	tentative := make([][]candidate, n)
	isImplicit := make([]bool, n)
	for i := 0; i < n; i++ {
		b := pr.sites[i]
		if !isWriteSide(b) {
			continue
		}
		best := bests[i]
		if best.other >= 0 {
			// Implicit IPC check (§4.2): when the wake-up call is closer to
			// the barrier than the pairing's shared objects, the barrier
			// orders the wake-up; leave it unpaired.
			if b.WakeUpAfter >= 0 && b.WakeUpAfter <= pr.minObjDist(i, best.o1, best.o2) {
				implicit = append(implicit, b)
				isImplicit[i] = true
				continue
			}
			tentative[i] = append(tentative[i], best)
			tentative[best.other] = append(tentative[best.other],
				candidate{other: int32(i), weight: best.weight, o1: best.o1, o2: best.o2})
			if pr.stats.Margins == nil {
				pr.stats.Margins = map[string]PairMargin{}
			}
			pr.stats.Margins[pr.ids[i]] = PairMargin{Weight: best.weight, RunnerUp: best.second}
		} else if b.WakeUpAfter >= 0 {
			implicit = append(implicit, b)
			isImplicit[i] = true
		}
	}

	// Keep only the lowest-weight pairing per barrier (first wins ties:
	// candidates were appended in canonical writer order); other is -1 for
	// a barrier with no candidate.
	bestOf := make([]candidate, n)
	tentativeTotal := 0
	for i, cands := range tentative {
		bestOf[i].other = -1
		if len(cands) == 0 {
			continue
		}
		tentativeTotal += len(cands)
		best := cands[0]
		for _, c := range cands[1:] {
			if c.weight < best.weight {
				best = c
			}
		}
		bestOf[i] = best
	}

	// Build the pairing array: a pairing survives only when both sides
	// still select each other after pruning. common[k] holds pairing k's
	// common-object IDs.
	var common [][]uint32
	kept := 0
	paired := make([]bool, n)
	for i := int32(0); i < int32(n); i++ {
		if !isWriteSide(pr.sites[i]) || paired[i] {
			continue
		}
		c := bestOf[i]
		if c.other < 0 || bestOf[c.other].other != i {
			continue
		}
		kept += 2 // this candidate and the reciprocal one survive
		ids := pr.commonIDs(int(i), int(c.other))
		pairing := &Pairing{Sites: []*access.Site{pr.sites[i], pr.sites[c.other]}, Weight: c.weight}
		for _, id := range ids {
			pairing.Common = append(pairing.Common, pr.in.Object(id))
		}
		paired[i], paired[c.other] = true, true
		pairings = append(pairings, pairing)
		common = append(common, ids)
	}

	// Extension step: unpaired barriers whose object set contains the
	// pairing's common objects join the pairing (multi-barrier pairings).
	// The membership threshold is loop-invariant, so pairings that can
	// never accept members skip the pass entirely, and the scan walks only
	// the index postings of the first common object — every site containing
	// the full common set necessarily appears there, in canonical order.
	for k, pg := range pairings {
		want := common[k] // non-empty: MinSharedObjects is at least 1
		if len(want) < pr.opts.MinSharedObjects {
			continue
		}
		for _, ref := range pr.index[want[0]] {
			if paired[ref.site] {
				continue
			}
			if containsAllIDs(pr.vecs[ref.site].Objs, want) {
				pg.Sites = append(pg.Sites, pr.sites[ref.site])
				paired[ref.site] = true
			}
		}
	}

	pr.stats.Pruned = int64(tentativeTotal - kept)

	// Pairings built over the same common-object set describe one protocol
	// (Figure 5: the seqcount duos form a single four-barrier pairing).
	pairings = mergeByCommon(pairings, common)

	for i, s := range pr.sites {
		if !paired[i] && !isImplicit[i] {
			unpaired = append(unpaired, s)
		}
	}
	return pairings, unpaired, implicit
}

// computeBests runs the per-write-barrier candidate search, sharded over
// the worker pool. Shard boundaries never influence results: every shard
// reads the same immutable index and writes only its own slice range.
func (pr *pairer) computeBests(ctx context.Context) []candidate {
	n := len(pr.sites)
	bests := make([]candidate, n)
	shards := pr.workers
	if max := (n + 63) / 64; shards > max {
		shards = max // tiny inputs are not worth the fan-out
	}
	if shards < 1 {
		shards = 1
	}
	pr.stats.Shards = shards

	per := (n + shards - 1) / shards
	var wg sync.WaitGroup
	var mu sync.Mutex
	for s := 0; s < shards; s++ {
		lo, hi := s*per, (s+1)*per
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			_, ssp := obs.Start(ctx, "pair.shard")
			defer ssp.End()
			var st PairStats
			for i := lo; i < hi; i++ {
				if ctx.Err() != nil {
					break // canceled: analyze surfaces the error after the phase
				}
				bests[i] = candidate{other: -1, weight: -1, second: -1}
				if isWriteSide(pr.sites[i]) {
					bests[i] = pr.bestFor(int32(i), &st)
				}
			}
			ssp.Add("sites", int64(hi-lo))
			mu.Lock()
			pr.stats.IndexProbes += st.IndexProbes
			pr.stats.PrunedBound += st.PrunedBound
			mu.Unlock()
		}(lo, hi)
	}
	wg.Wait()
	return bests
}

// bestFor finds write barrier b's lowest-weight candidate partner:
// foreach (o1, o2) in make_pairs(b->objs), intersect the two objects'
// postings, keeping the candidate with the lowest distance product. A pair
// whose weight lower bound cannot beat the best found so far is skipped
// before touching the index.
func (pr *pairer) bestFor(b int32, st *PairStats) candidate {
	objs := pr.vecs[b].Objs
	best := candidate{other: -1, weight: -1, second: -1}
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
				st.PrunedBound++
				continue
			}
			st.IndexProbes++
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
				best = candidate{other: pair, weight: w, o1: o1, o2: o2, second: second}
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
				st.PrunedBound++
				continue
			}
			st.IndexProbes++
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
				best = candidate{other: pair, weight: w, o1: od.ID, o2: od.ID, second: second}
			} else {
				noteAlt(w, pair)
			}
		}
	}
	return best
}

// getPair implements get_pair of Algorithm 1 as a two-pointer intersection
// of the two objects' postings: the other site, surrounded by both o1 and
// o2, with the lowest distance product. Postings are in ascending canonical
// site order and the minimum is kept strictly, so equal-weight ties resolve
// to the earliest site — the engine's deterministic tie-break. The
// second-best site of the intersection (alt, altW) is returned for the
// margin evidence only; it never influences the selected pair.
func (pr *pairer) getPair(b int32, o1, o2 uint32) (match int32, bestW int, alt int32, altW int) {
	l1, l2 := pr.index[o1], pr.index[o2]
	bid := pr.ids[b]
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
		if s != b && pr.ids[s] != bid { // skip the same physical barrier
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
	bid := pr.ids[b]
	match, bestW := int32(-1), -1
	for _, ref := range pr.index[o] {
		if ref.site == b || pr.ids[ref.site] == bid {
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

// commonIDs merges two sites' ID-sorted object sets. IDs are assigned in
// canonical (struct, field) order, so the merged result is already in the
// presentation order the JSON output serializes.
func (pr *pairer) commonIDs(a, b int) []uint32 {
	la, lb := pr.vecs[a].Objs, pr.vecs[b].Objs
	var out []uint32
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

// mergeByCommon coalesces pairings with identical common-object sets;
// common[k] holds pairing k's common-object IDs. The first pairing of each
// set keeps its place and absorbs the sites of the later ones.
func mergeByCommon(pairings []*Pairing, common [][]uint32) []*Pairing {
	byKey := map[string]*Pairing{}
	var out []*Pairing
	var key []byte
	for k, pg := range pairings {
		key = key[:0]
		for _, id := range common[k] {
			key = binary.LittleEndian.AppendUint32(key, id)
		}
		ex, ok := byKey[string(key)]
		if !ok {
			byKey[string(key)] = pg
			out = append(out, pg)
			continue
		}
		for _, s := range pg.Sites {
			dup := false
			for _, have := range ex.Sites {
				if have == s {
					dup = true
					break
				}
			}
			if !dup {
				ex.Sites = append(ex.Sites, s)
			}
		}
		if pg.Weight < ex.Weight {
			ex.Weight = pg.Weight
		}
	}
	return out
}

// PairSites runs the pairing engine (Algorithm 1) over already-extracted
// sites and returns the pairings, the sites left unpaired, and the
// implicit-IPC writers, plus the engine's execution counters. The sites are
// re-sorted into canonical position order internally, so the result does
// not depend on input order, worker count, or GOMAXPROCS. This is the
// entry point for pairing-only tooling and benchmarks; AnalyzeParallel
// routes through the same engine.
func PairSites(ctx context.Context, sites []*access.Site, opts Options) (pairings []*Pairing, unpaired, implicit []*access.Site, stats PairStats) {
	sorted := make([]*access.Site, len(sites))
	copy(sorted, sites)
	sortSites(sorted)
	pr := newPairer(access.BuildSiteTable(nil, sorted, opts.GenericStructs, opts.Workers), opts)
	pairings, unpaired, implicit = pr.run(ctx)
	return pairings, unpaired, implicit, pr.stats
}
