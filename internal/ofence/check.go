package ofence

import (
	"context"
	"sort"

	"ofence/internal/access"
	"ofence/internal/cfg"
	"ofence/internal/memmodel"
)

// FindingKind classifies a deviation (§5) or extension finding (§7).
type FindingKind int

const (
	// MisplacedAccess is deviation #1: a shared object read and written on
	// the same side of both barriers of a pairing.
	MisplacedAccess FindingKind = iota
	// WrongBarrierType is deviation #2: a read barrier that only orders
	// writes, or a write barrier that only orders reads.
	WrongBarrierType
	// RepeatedRead is deviation #3: a variable correctly read relative to a
	// read barrier and then racily re-read.
	RepeatedRead
	// UnneededBarrier is §5.1: a barrier immediately followed by another
	// barrier or by a function with barrier semantics.
	UnneededBarrier
	// MissingOnce is the §7 extension: a concurrently-accessed shared
	// object lacking READ_ONCE/WRITE_ONCE.
	MissingOnce
)

// String renders the kind using the paper's vocabulary.
func (k FindingKind) String() string {
	switch k {
	case MisplacedAccess:
		return "misplaced memory access"
	case WrongBarrierType:
		return "wrong type of barrier"
	case RepeatedRead:
		return "racy variable re-read"
	case UnneededBarrier:
		return "unneeded barrier"
	case MissingOnce:
		return "missing READ_ONCE/WRITE_ONCE"
	}
	return "unknown"
}

// Finding is one reported deviation with everything the patch generator
// needs.
type Finding struct {
	Kind    FindingKind
	Site    *access.Site
	Pairing *Pairing // nil for unneeded barriers
	Object  access.Object
	// Access is the offending access (the one a patch moves, de-duplicates
	// or annotates); nil for wrong-type and unneeded-barrier findings.
	Access *access.Access
	// FirstAccess is the earlier, correct access for repeated reads.
	FirstAccess *access.Access
	// SuggestedBarrier is the replacement primitive for wrong-type
	// findings ("smp_wmb" or "smp_rmb").
	SuggestedBarrier string
	// Explanation is the human-readable rationale embedded in patches.
	Explanation string
	// Confidence is the calibrated score in [0, 1] the ranking pass
	// (internal/rank) assigns after checking; findings below
	// Options.MinConfidence are gated out of Result.Findings.
	Confidence float64
}

// String renders the finding.
func (f *Finding) String() string {
	loc := f.Site.Pos.String()
	return loc + ": " + f.Kind.String() + " in " + f.Site.Fn.Name + ": " + f.Explanation
}

type checker struct {
	opts Options
}

// checkParallel runs the deviation checkers over the pairings on a pool of
// workers goroutines. Findings are collected per pairing index and merged
// in order (then sorted by position), so the output is deterministic
// regardless of scheduling. It stops early and returns ctx's error when the
// context is canceled.
func (c *checker) checkParallel(ctx context.Context, res *Result, workers int) ([]*Finding, error) {
	perPairing := make([][]*Finding, len(res.Pairings))
	forEachIndex(len(res.Pairings), workers, func(i int) {
		if ctx.Err() == nil {
			perPairing[i] = c.checkPairing(res.Pairings[i])
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	var out []*Finding
	for _, fs := range perPairing {
		out = append(out, fs...)
	}
	for _, s := range res.Unpaired {
		if f := c.checkUnneeded(s, nil); f != nil {
			out = append(out, f)
		}
	}
	for _, s := range res.ImplicitIPC {
		if f := c.checkUnneeded(s, nil); f != nil {
			out = append(out, f)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Site.File != b.Site.File {
			return a.Site.File < b.Site.File
		}
		if a.Site.Pos.Line != b.Site.Pos.Line {
			return a.Site.Pos.Line < b.Site.Pos.Line
		}
		return a.Kind < b.Kind
	})
	return out, nil
}

// checkPairing dispatches on pairing arity (§5.2 vs §5.3).
func (c *checker) checkPairing(pg *Pairing) []*Finding {
	writeSites, readSites := splitRoles(pg)
	var out []*Finding
	if len(pg.Sites) > 2 && len(writeSites) >= 2 && len(readSites) >= 2 {
		// §5.3 double pairing (seqcount): barriers work in duos — the first
		// write barrier pairs with the SECOND read barrier and vice versa.
		w1, w2 := orderTwo(writeSites[0], writeSites[1])
		r1, r2 := orderTwo(readSites[0], readSites[1])
		out = append(out, c.checkDuo(pg, w1, r2)...)
		out = append(out, c.checkDuo(pg, w2, r1)...)
	} else {
		for _, w := range writeSites {
			for _, r := range readSites {
				out = append(out, c.checkDuo(pg, w, r)...)
			}
		}
	}
	for _, s := range pg.Sites {
		if f := c.checkWrongType(pg, s); f != nil {
			out = append(out, f)
		}
	}
	if c.opts.CheckOnce {
		out = append(out, c.checkOnce(pg)...)
	}
	return out
}

// splitRoles divides the pairing's sites into write-side and read-side.
// Full barriers count on the side their surrounding accesses suggest.
func splitRoles(pg *Pairing) (writes, reads []*access.Site) {
	for _, s := range pg.Sites {
		switch s.Kind {
		case memmodel.WriteBarrier:
			writes = append(writes, s)
		case memmodel.ReadBarrier:
			reads = append(reads, s)
		default: // full barrier: classify by dominant access kind on common objects
			st, ld := 0, 0
			for _, a := range append(append([]*access.Access{}, s.Before...), s.After...) {
				if !inCommon(pg, a.Object) {
					continue
				}
				if a.Kind == access.Store {
					st++
				} else {
					ld++
				}
			}
			if st >= ld {
				writes = append(writes, s)
			} else {
				reads = append(reads, s)
			}
		}
	}
	return writes, reads
}

func inCommon(pg *Pairing, o access.Object) bool {
	for _, c := range pg.Common {
		if c == o {
			return true
		}
	}
	return false
}

// orderTwo returns the two sites in source order.
func orderTwo(a, b *access.Site) (*access.Site, *access.Site) {
	if a.Fn == b.Fn && a.Unit != nil && b.Unit != nil {
		if a.Unit.Index <= b.Unit.Index {
			return a, b
		}
		return b, a
	}
	if a.Pos.Line <= b.Pos.Line {
		return a, b
	}
	return b, a
}

// checkDuo runs deviations #1 and #3 on one write/read barrier duo.
//
// Correct placement (§2): objects written BEFORE the write barrier must be
// read AFTER the read barrier; objects written AFTER the write barrier must
// be read BEFORE the read barrier. Any same-side read+write is deviation #1.
func (c *checker) checkDuo(pg *Pairing, w, r *access.Site) []*Finding {
	var out []*Finding
	for _, o := range pg.Common {
		wb := hasAccess(w.Before, o, access.Store)
		wa := hasAccess(w.After, o, access.Store)
		rb := firstAccess(r.Before, o, access.Load)
		ra := firstAccess(r.After, o, access.Load)

		// Deviation #1: same-side placement. The patch bias (§5.2) always
		// moves the READ, trusting the writer.
		if wb != nil && rb != nil && ra == nil {
			// Written before W (payload side) but only read before R.
			out = append(out, &Finding{
				Kind: MisplacedAccess, Site: r, Pairing: pg, Object: o, Access: rb,
				Explanation: o.String() + " is written before the write barrier in " + w.Fn.Name +
					" but read before the read barrier in " + r.Fn.Name + "; the read must move after the barrier",
			})
		}
		if wa != nil && ra != nil && rb == nil {
			// Written after W (flag side) but only read after R.
			out = append(out, &Finding{
				Kind: MisplacedAccess, Site: r, Pairing: pg, Object: o, Access: ra,
				Explanation: o.String() + " is written after the write barrier in " + w.Fn.Name +
					" but read after the read barrier in " + r.Fn.Name + "; the read must move before the barrier",
			})
		}

		// Deviation #3, cross-side form (Patch 3): flag object correctly
		// read before the read barrier, then racily re-read after it.
		if wa != nil && rb != nil && ra != nil {
			out = append(out, &Finding{
				Kind: RepeatedRead, Site: r, Pairing: pg, Object: o,
				FirstAccess: rb, Access: ra,
				Explanation: o.String() + " is correctly read before the read barrier in " + r.Fn.Name +
					" but re-read after it; the re-read has no ordering guarantee — reuse the first value",
			})
		}

		// Deviation #3, same-side form (Patch 2 / Listing 2): a condition
		// reads the object, then the object is re-read before the barrier.
		if f := c.repeatedReadSameSide(pg, r, o); f != nil {
			out = append(out, f)
		}
	}
	return out
}

// repeatedReadSameSide flags an object loaded at two or more distinct units
// before the read barrier where the first (farthest) load feeds a branch
// condition.
func (c *checker) repeatedReadSameSide(pg *Pairing, r *access.Site, o access.Object) *Finding {
	var loads []*access.Access
	for _, a := range r.Before {
		if a.Object == o && a.Kind == access.Load {
			loads = append(loads, a)
		}
	}
	if len(loads) < 2 {
		return nil
	}
	// Distinct units only — "a->f + a->f" in one expression is not a race
	// the paper reports.
	units := map[*cfg.Unit]bool{}
	for _, a := range loads {
		units[a.Unit] = true
	}
	if len(units) < 2 {
		return nil
	}
	// The farthest load (first in code order) must be a condition read.
	first := loads[len(loads)-1] // Before is sorted by distance: last = farthest
	if first.Unit == nil || first.Unit.Kind != cfg.UnitCond {
		return nil
	}
	reread := loads[0] // closest to the barrier = latest in code order
	if reread.Unit == first.Unit {
		return nil
	}
	return &Finding{
		Kind: RepeatedRead, Site: r, Pairing: pg, Object: o,
		FirstAccess: first, Access: reread,
		Explanation: o.String() + " is checked in a condition and then re-read in " + r.Fn.Name +
			"; a concurrent write may change it between the reads — reuse the first value",
	}
}

func hasAccess(list []*access.Access, o access.Object, k access.Kind) *access.Access {
	for _, a := range list {
		if a.Object == o && a.Kind == k {
			return a
		}
	}
	return nil
}

func firstAccess(list []*access.Access, o access.Object, k access.Kind) *access.Access {
	return hasAccess(list, o, k) // list is distance-sorted; first match is closest
}

// checkWrongType is deviation #2: the barrier's kind does not match the
// accesses it orders. Only explicit read/write primitives are checked; full
// barriers order both and seqcount barriers have fixed APIs.
func (c *checker) checkWrongType(pg *Pairing, s *access.Site) *Finding {
	if s.Seq || (s.Kind != memmodel.ReadBarrier && s.Kind != memmodel.WriteBarrier) {
		return nil
	}
	var loads, stores int
	for _, a := range append(append([]*access.Access{}, s.Before...), s.After...) {
		if !inCommon(pg, a.Object) {
			continue
		}
		if a.Kind == access.Store {
			stores++
		} else {
			loads++
		}
	}
	if loads+stores == 0 {
		return nil
	}
	if s.Kind == memmodel.ReadBarrier && loads == 0 && stores > 0 {
		return &Finding{
			Kind: WrongBarrierType, Site: s, Pairing: pg,
			SuggestedBarrier: "smp_wmb",
			Explanation: "the read barrier in " + s.Fn.Name +
				" only orders writes to the shared objects; it must be a write barrier (smp_wmb)",
		}
	}
	if s.Kind == memmodel.WriteBarrier && stores == 0 && loads > 0 {
		return &Finding{
			Kind: WrongBarrierType, Site: s, Pairing: pg,
			SuggestedBarrier: "smp_rmb",
			Explanation: "the write barrier in " + s.Fn.Name +
				" only orders reads of the shared objects; it must be a read barrier (smp_rmb)",
		}
	}
	return nil
}

// checkUnneeded is §5.1: an unpaired barrier immediately followed by another
// barrier or by a function with barrier semantics offers nothing.
func (c *checker) checkUnneeded(s *access.Site, pg *Pairing) *Finding {
	if s.Seq {
		return nil // seqcount barriers are part of a fixed protocol
	}
	if s.NextBarrierAfter != 1 {
		return nil
	}
	return &Finding{
		Kind: UnneededBarrier, Site: s, Pairing: pg,
		Explanation: "the " + s.Name + " in " + s.Fn.Name + " is immediately followed by " + s.NextBarrierName +
			", which already provides barrier semantics; the barrier is unneeded",
	}
}

// checkOnce is the §7 extension: on a correctly-ordered pairing, shared
// objects accessed without READ_ONCE/WRITE_ONCE need annotations.
func (c *checker) checkOnce(pg *Pairing) []*Finding {
	var out []*Finding
	for _, s := range pg.Sites {
		for _, list := range [2][]*access.Access{s.Before, s.After} {
			for _, a := range list {
				out = c.checkOnceAccess(pg, s, a, out)
			}
		}
	}
	return out
}

// checkOnceAccess appends a MissingOnce finding for one access when it
// touches a shared object without the required annotation.
func (c *checker) checkOnceAccess(pg *Pairing, s *access.Site, a *access.Access, out []*Finding) []*Finding {
	if !inCommon(pg, a.Object) || a.Once || a.Expr == nil {
		return out
	}
	if a.Distance == 0 {
		return out // combined primitives already have ONCE semantics
	}
	ann := memmodel.ReadOnce
	if a.Kind == access.Store {
		ann = memmodel.WriteOnce
	}
	return append(out, &Finding{
		Kind: MissingOnce, Site: s, Pairing: pg, Object: a.Object, Access: a,
		SuggestedBarrier: ann,
		Explanation: a.Object.String() + " is accessed concurrently in " + s.Fn.Name + " without " + ann +
			"; the compiler may tear or fuse the access",
	})
}
