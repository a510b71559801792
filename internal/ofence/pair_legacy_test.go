package ofence

import (
	"sort"

	"ofence/internal/access"
)

// This file preserves the pre-index pairing engine — the direct
// transliteration of Algorithm 1 with map[access.Object]int object sets and
// per-getPair-call set allocation — as a test-only oracle. The determinism
// suite runs it differentially against the interned/indexed engine in
// pair.go, and BenchmarkPairKernelScale uses it as the old-vs-new baseline.
// It is not compiled into the analyzer.

type legacyPairer struct {
	sites    []*access.Site
	opts     Options
	objIndex map[access.Object][]*access.Site
	objDist  map[*access.Site]map[access.Object]int
	ids      map[*access.Site]string
	generic  map[string]bool
	pruned   int
}

type legacyCandidate struct {
	other  *access.Site
	weight int
	o1, o2 access.Object
}

func newLegacyPairer(sites []*access.Site, opts Options) *legacyPairer {
	if opts.MinSharedObjects <= 0 {
		opts.MinSharedObjects = 2
	}
	pr := &legacyPairer{
		sites:    sites,
		opts:     opts,
		objIndex: map[access.Object][]*access.Site{},
		objDist:  map[*access.Site]map[access.Object]int{},
		ids:      map[*access.Site]string{},
		generic:  map[string]bool{},
	}
	for _, g := range opts.GenericStructs {
		pr.generic[g] = true
	}
	for _, s := range sites {
		objs := pr.filteredObjects(s)
		pr.objDist[s] = objs
		pr.ids[s] = s.ID()
		for o := range objs {
			pr.objIndex[o] = append(pr.objIndex[o], s)
		}
	}
	return pr
}

func (pr *legacyPairer) filteredObjects(s *access.Site) map[access.Object]int {
	all := s.Objects()
	drop := false
	for o := range all {
		if pr.generic[o.Struct] {
			drop = true
			break
		}
	}
	if !drop {
		return all
	}
	out := make(map[access.Object]int, len(all))
	for o, d := range all {
		if pr.generic[o.Struct] {
			continue
		}
		out[o] = d
	}
	return out
}

func (pr *legacyPairer) run() (pairings []*Pairing, unpaired, implicit []*access.Site) {
	tentative := map[*access.Site][]legacyCandidate{}

	for _, b := range pr.sites {
		if !isWriteSide(b) {
			continue
		}
		objs := pr.objDist[b]
		best := legacyCandidate{weight: -1}
		olist := legacySortedObjects(objs)
		for i := 0; i < len(olist); i++ {
			for j := i + 1; j < len(olist); j++ {
				o1, o2 := olist[i], olist[j]
				myWeight := weightOf(objs[o1]) * weightOf(objs[o2])
				pair, pairWeight := pr.getPair(b, o1, o2)
				if pair == nil {
					continue
				}
				w := myWeight * pairWeight
				if (best.weight < 0 || w < best.weight) &&
					(b.Orders(o1, o2) || pair.Orders(o1, o2)) {
					best = legacyCandidate{other: pair, weight: w, o1: o1, o2: o2}
				}
			}
		}
		if pr.opts.MinSharedObjects == 1 && best.other == nil {
			for _, o := range olist {
				pair, pairWeight := pr.getSingle(b, o)
				if pair == nil {
					continue
				}
				w := weightOf(objs[o]) * pairWeight
				if best.weight < 0 || w < best.weight {
					best = legacyCandidate{other: pair, weight: w, o1: o, o2: o}
				}
			}
		}
		if best.other != nil {
			if b.WakeUpAfter >= 0 && b.WakeUpAfter <= legacyMinObjDistance(b, best.o1, best.o2) {
				implicit = append(implicit, b)
				continue
			}
			tentative[b] = append(tentative[b], best)
			tentative[best.other] = append(tentative[best.other], legacyCandidate{other: b, weight: best.weight, o1: best.o1, o2: best.o2})
		} else if b.WakeUpAfter >= 0 {
			implicit = append(implicit, b)
		}
	}

	bestOf := map[*access.Site]legacyCandidate{}
	for s, cands := range tentative {
		best := cands[0]
		for _, c := range cands[1:] {
			if c.weight < best.weight {
				best = c
			}
		}
		bestOf[s] = best
	}

	tentativeTotal := 0
	for _, cands := range tentative {
		tentativeTotal += len(cands)
	}
	kept := 0
	paired := map[*access.Site]bool{}
	for _, b := range pr.sites {
		if !isWriteSide(b) || paired[b] {
			continue
		}
		c, ok := bestOf[b]
		if !ok {
			continue
		}
		back, ok := bestOf[c.other]
		if !ok || back.other != b {
			continue
		}
		kept += 2
		pairing := &Pairing{Sites: []*access.Site{b, c.other}, Weight: c.weight}
		pairing.Common = legacyCommonObjects(pr.objDist[b], pr.objDist[c.other])
		paired[b] = true
		paired[c.other] = true
		pairings = append(pairings, pairing)
	}

	for _, pg := range pairings {
		for _, s := range pr.sites {
			if paired[s] || len(pg.Common) < pr.opts.MinSharedObjects {
				continue
			}
			if legacyContainsAll(pr.objDist[s], pg.Common) {
				pg.Sites = append(pg.Sites, s)
				paired[s] = true
			}
		}
	}

	pr.pruned = tentativeTotal - kept
	pairings = legacyMergeByCommon(pairings)

	for _, s := range pr.sites {
		if !paired[s] && !isImplicitMember(s, implicit) {
			unpaired = append(unpaired, s)
		}
	}
	return pairings, unpaired, implicit
}

func (pr *legacyPairer) getPair(b *access.Site, o1, o2 access.Object) (*access.Site, int) {
	s1 := pr.objIndex[o1]
	s2 := pr.objIndex[o2]
	in2 := map[*access.Site]bool{}
	for _, s := range s2 {
		in2[s] = true
	}
	var match *access.Site
	bestW := -1
	for _, s := range s1 {
		if s == b || !in2[s] {
			continue
		}
		if pr.ids[s] == pr.ids[b] {
			continue
		}
		w := weightOf(pr.objDist[s][o1]) * weightOf(pr.objDist[s][o2])
		if bestW < 0 || w < bestW {
			bestW = w
			match = s
		}
	}
	return match, bestW
}

func (pr *legacyPairer) getSingle(b *access.Site, o access.Object) (*access.Site, int) {
	var match *access.Site
	bestW := -1
	for _, s := range pr.objIndex[o] {
		if s == b || pr.ids[s] == pr.ids[b] {
			continue
		}
		w := weightOf(pr.objDist[s][o])
		if bestW < 0 || w < bestW {
			bestW = w
			match = s
		}
	}
	return match, bestW
}

func legacyMinObjDistance(s *access.Site, objs ...access.Object) int {
	min := -1
	dist := s.Objects()
	for _, o := range objs {
		if d, ok := dist[o]; ok && (min < 0 || d < min) {
			min = d
		}
	}
	if min < 0 {
		return 1 << 30
	}
	return min
}

func legacySortedObjects(m map[access.Object]int) []access.Object {
	out := make([]access.Object, 0, len(m))
	for o := range m {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Struct != out[j].Struct {
			return out[i].Struct < out[j].Struct
		}
		return out[i].Field < out[j].Field
	})
	return out
}

func legacyCommonObjects(a, b map[access.Object]int) []access.Object {
	var out []access.Object
	for o := range a {
		if _, ok := b[o]; ok {
			out = append(out, o)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Struct != out[j].Struct {
			return out[i].Struct < out[j].Struct
		}
		return out[i].Field < out[j].Field
	})
	return out
}

func legacyContainsAll(objs map[access.Object]int, want []access.Object) bool {
	if len(want) == 0 {
		return false
	}
	for _, o := range want {
		if _, ok := objs[o]; !ok {
			return false
		}
	}
	return true
}

// legacyMergeByCommon is the reference formulation's merge: pairings with
// identical common-object sets coalesce, keyed on the objects' strings.
func legacyMergeByCommon(pairings []*Pairing) []*Pairing {
	byKey := map[string]*Pairing{}
	var out []*Pairing
	for _, pg := range pairings {
		key := ""
		for _, o := range pg.Common {
			key += o.String() + "|"
		}
		ex, ok := byKey[key]
		if !ok {
			byKey[key] = pg
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

func isImplicitMember(s *access.Site, implicit []*access.Site) bool {
	for _, i := range implicit {
		if i == s {
			return true
		}
	}
	return false
}
