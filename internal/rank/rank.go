// Package rank is the confidence-ranking pass that runs after pairing and
// checking: every finding is assigned a calibrated confidence in [0, 1]
// combining four evidence channels, so consumers can sort findings by how
// likely they are to be real bugs and gate out the low-confidence tail
// (`-min-confidence`). The paper reports a ~50% patch false-positive ratio;
// this layer exists to beat it.
//
// The channels, in weight order:
//
//  1. Outlier statistics (Index): a cross-project census of how every site
//     orders its accesses to each interned (struct, field) object. When N
//     sites agree on an access-ordering protocol for an object and the
//     finding's site deviates, the agreement is evidence the deviation is a
//     bug — the signal of the context-sensitive outlier-based kernel-race
//     work. When no majority protocol exists, the object looks generic
//     (the paper's main false-positive source, §6.4) and confidence drops.
//  2. Pairing-weight margin: how decisively the winning pair beat the best
//     probed alternative (Result.PairStats.Margins), plus the winning
//     weight itself — lower weight means closer accesses, a more confident
//     pairing.
//  3. Site richness and window provenance: barriers with more surrounding
//     accesses in their exploration windows are better-understood contexts;
//     sites only seen through inlined callees are discounted.
//  4. Barrier-semantics provenance: orderings that rest on
//     interprocedurally INFERRED semantics (internal/semprop, depth > 0)
//     rather than the memmodel catalog are discounted.
//
// The default gate threshold is not guessed: `make bench-confidence` sweeps
// thresholds against the labeled corpus (internal/report) and
// BENCH_confidence.json records the tuned operating point, which
// DefaultThreshold mirrors.
package rank

import (
	"math"

	"ofence/internal/access"
)

// DefaultThreshold is the tuned default for the -min-confidence gate: the
// precision/recall sweep in internal/report (make bench-confidence) selects
// the smallest threshold maximizing F1 on the labeled corpus, and this
// constant mirrors the recorded operating point in BENCH_confidence.json.
const DefaultThreshold = 0.50

// Channel weights. They express a priority order (outlier agreement is the
// strongest exogenous signal; semantics provenance the weakest) and sum to
// 1 so Combine stays in [0, 1].
const (
	weightOutlier   = 0.40
	weightMargin    = 0.20
	weightRichness  = 0.25
	weightSemantics = 0.15
)

// Index is the cross-project outlier census: for every interned
// (struct, field) object, how many sites exhibit each access-ordering
// protocol (usage signature — see access.ObjUsage). Build once per analysis
// over the full deduplicated site set, or derive it from the previous
// analysis's (Derive); query per finding. Immutable once built.
type Index struct {
	tbl *access.SiteTable
	// pages hold the census rows, pageRows to a page: object id's row is
	// pages[id/pageRows] at id%pageRows. An index derived from another
	// shares every page none of whose rows changed.
	pages []*censusPage
}

// pageRows is the number of census rows a page holds.
const pageRows = 64

// censusPage is pageRows consecutive census rows.
type censusPage struct {
	// census[r][sig] is the number of sites whose windows touch the row's
	// object with exactly usage signature sig (usage bits are 4 bits wide).
	census [pageRows][16]int32
	// total[r] is the number of sites touching the row's object at all.
	total [pageRows]int32
}

// row returns object id's census row and total.
func (x *Index) row(id uint32) (*[16]int32, int32) {
	pg := x.pages[id/pageRows]
	return &pg.census[id%pageRows], pg.total[id%pageRows]
}

// NewIndex computes the census over the usage vectors of every site in
// tbl. The result depends only on the set of sites, not their order. It is
// the census derived from the empty index, to which every site of tbl is
// added.
func NewIndex(tbl *access.SiteTable) *Index {
	all := make([]int32, len(tbl.Sites()))
	for i := range all {
		all[i] = int32(i)
	}
	return new(Index).Derive(tbl, &access.TableDiff{Added: all})
}

// Derive returns the index of tbl, which access.BuildSiteTable derived
// from x's table with diff d: x's census less the usages of d's dropped
// sites plus those of its added sites. It copies only the pages those
// usages fall in and shares the rest with x, which it leaves unchanged.
// Derive equals NewIndex(tbl).
func (x *Index) Derive(tbl *access.SiteTable, d *access.TableDiff) *Index {
	n := (tbl.Interner().Len() + pageRows - 1) / pageRows
	y := &Index{tbl: tbl, pages: make([]*censusPage, max(n, len(x.pages)))}
	copy(y.pages, x.pages)
	owned := make([]bool, len(y.pages))
	// Rows x lacks start at zero, on pages y owns from the start.
	fresh := make([]censusPage, len(y.pages)-len(x.pages))
	for k := range fresh {
		p := len(x.pages) + k
		y.pages[p], owned[p] = &fresh[k], true
	}
	for _, j := range d.Dropped {
		y.count(x.tbl.Vecs(int(j)), -1, owned)
	}
	for _, i := range d.Added {
		y.count(tbl.Vecs(int(i)), 1, owned)
	}
	return y
}

// count adds delta to the census rows of v's usages. owned marks the
// pages x owns: a page it does not own yet is copied first.
func (x *Index) count(v *access.SiteVecs, delta int32, owned []bool) {
	for _, u := range v.Usages {
		p := u.ID / pageRows
		if !owned[p] {
			cp := *x.pages[p]
			x.pages[p], owned[p] = &cp, true
		}
		pg := x.pages[p]
		pg.census[u.ID%pageRows][u.Bits] += delta
		pg.total[u.ID%pageRows] += delta
	}
}

// Table returns the site table the census counts.
func (x *Index) Table() *access.SiteTable { return x.tbl }

// ChangedRows returns, in ascending order, the IDs of the objects whose
// census row differs from prev's. Both indexes must share one interner, so
// that an ID names the same object in each. Pages the two share are equal
// and skipped.
func (x *Index) ChangedRows(prev *Index) []uint32 {
	var out []uint32
	for p, pg := range x.pages {
		old := prev.pages[p]
		if pg == old {
			continue
		}
		for r := range pageRows {
			if pg.total[r] != old.total[r] || pg.census[r] != old.census[r] {
				out = append(out, uint32(p*pageRows+r))
			}
		}
	}
	return out
}

// BuildIndexParallel computes the census over sites from a fresh site
// table. workers is unused: the table is built on the calling goroutine.
// The function stays only for bench/probe.go's per-layer replay, until
// that replay reads the analyzer's own spans (ROADMAP item 1).
func BuildIndexParallel(sites []*access.Site, workers int) *Index {
	tbl, _ := access.BuildSiteTable(nil, sites, nil)
	return NewIndex(tbl)
}

// Objects returns the number of objects in the census.
func (x *Index) Objects() int { return x.tbl.Interner().Len() }

// Support is the outlier evidence for one (object, site) query: how the
// OTHER sites touching the object order their accesses, and whether the
// queried site deviates from their majority protocol.
type Support struct {
	// Others is the number of sites other than the queried one whose
	// windows touch the object.
	Others int
	// Majority is the size of the largest protocol among the others, and
	// MajoritySig its signature. A single-site object has no others and
	// therefore no majority (Majority == 0).
	Majority    int
	MajoritySig uint8
	// Sig is the queried site's own signature for the object (0 when the
	// site does not touch it).
	Sig uint8
	// Deviates reports that a majority protocol exists among the others
	// and the queried site's signature differs from it.
	Deviates bool
}

// Support queries the census for object o as seen from site s, one of the
// indexed sites: s's own contribution is subtracted out, so the majority is
// established purely by the other sites. An object the index has never
// seen yields a zero Support; a site outside the index counts as touching
// nothing.
func (x *Index) Support(o access.Object, s *access.Site) Support {
	id, ok := x.tbl.Interner().ID(o)
	if !ok {
		return Support{}
	}
	var sig uint8
	if i, ok := x.tbl.Index(s); ok {
		for _, u := range x.tbl.Vecs(i).Usages {
			if u.ID == id {
				sig = u.Bits
				break
			}
		}
	}
	census, total := x.row(id)
	sp := Support{Sig: sig, Others: int(total)}
	if sig != 0 {
		sp.Others-- // exclude the queried site itself
	}
	// Majority among the others, deterministic tie-break: lowest signature.
	for b, n := range census {
		if uint8(b) == sig {
			n-- // the queried site's own vote does not establish a protocol
		}
		if int(n) > sp.Majority {
			sp.Majority, sp.MajoritySig = int(n), uint8(b)
		}
	}
	sp.Deviates = sp.Majority > 0 && sp.Sig != sp.MajoritySig &&
		float64(sp.Majority) >= 0.5*float64(sp.Others)
	return sp
}

// Evidence gathers the four channels for one finding. The ofence package
// fills it from the analysis result; Combine folds it into a score.
type Evidence struct {
	// Outlier is channel 1, from Index.Support on the finding's object; the
	// zero value (no object, or an object never indexed) is neutral.
	Outlier Support

	// HasPairing marks findings attached to a pairing; Weight is the
	// pairing's winning distance product (lower = closer = more confident)
	// and RunnerUp the best probed alternative weight from
	// PairStats.Margins (<= 0 when no alternative was probed — a decisive
	// win). RunnerUp is an optimistic margin: bound-pruned candidates are
	// never probed, so a true runner-up can be missed.
	HasPairing bool
	Weight     int
	RunnerUp   int

	// Richness is the finding site's Site.Richness(); Inlined marks sites
	// seen only through an inlined callee rather than their lexical owner.
	Richness int
	Inlined  bool

	// InferredSem marks findings whose ordering rests on interprocedurally
	// inferred (not catalogued) barrier semantics.
	InferredSem bool
}

// outlierScore maps channel 1 onto [0, 1]. Fewer than two other sites is no
// evidence either way (0.5). With others present: a strong majority the
// finding deviates from pushes the score up with both the agreement
// fraction and the absolute count; no majority at all means the object's
// uses are chaotic — the generic-struct false-positive shape — and the
// score drops hard; a site that FOLLOWS the majority protocol it was
// reported against is likely an analysis artifact.
func outlierScore(sp Support) float64 {
	if sp.Others < 2 {
		return 0.5
	}
	frac := float64(sp.Majority) / float64(sp.Others)
	if frac < 0.5 {
		return 0.15
	}
	if sp.Deviates {
		bulk := float64(sp.Majority) / float64(sp.Majority+2)
		return 0.5 + 0.5*frac*bulk
	}
	return 0.35
}

// marginScore maps channel 2 onto [0, 1]: half from the winning weight
// (decaying as accesses sit farther from their barriers), half from how far
// behind the best probed alternative finished. Findings without a pairing
// (unneeded barriers) are neutral.
func marginScore(ev Evidence) float64 {
	if !ev.HasPairing {
		return 0.5
	}
	w := 1.0 / (1.0 + float64(ev.Weight)/64.0)
	r := 1.0 // no probed alternative: a decisive win
	if ev.RunnerUp > 0 && ev.Weight > 0 && ev.RunnerUp >= ev.Weight {
		r = 1.0 - float64(ev.Weight)/float64(ev.RunnerUp)
	}
	return 0.5*w + 0.5*r
}

// richnessScore maps channel 3 onto [0, 1): saturating in the number of
// window accesses, discounted for inlined provenance.
func richnessScore(ev Evidence) float64 {
	r := float64(ev.Richness) / (float64(ev.Richness) + 4.0)
	if ev.Inlined {
		r *= 0.75
	}
	return r
}

// semanticsScore maps channel 4 onto [0, 1]: explicit catalog semantics are
// fully trusted, inferred semantics heavily discounted.
func semanticsScore(ev Evidence) float64 {
	if ev.InferredSem {
		return 0.3
	}
	return 1.0
}

// Combine folds the four channels into one confidence in [0, 1], rounded to
// four decimals so serialized output is stable and readable.
func Combine(ev Evidence) float64 {
	s := weightOutlier*outlierScore(ev.Outlier) +
		weightMargin*marginScore(ev) +
		weightRichness*richnessScore(ev) +
		weightSemantics*semanticsScore(ev)
	if s < 0 {
		s = 0
	}
	if s > 1 {
		s = 1
	}
	return math.Round(s*10000) / 10000
}
