// Incremental check and rank.
//
// Phases 3 and 4 of AnalyzeParallel derive from the last completed run the
// way the site table and the global record do. After a run completes, the
// project publishes one immutable verdictRecord: every pairing with its
// ranked findings (before the MinConfidence gate), the unneeded-barrier
// findings, the outlier census and the writers' margins the findings were
// ranked under. Clones share it by pointer.
//
// Check: a new pairing equal to the record's pairing of the same writer
// site — the same site pointers, common objects and weight — reuses the
// recorded *Pairing and its findings. Sites are immutable once extracted,
// and checkPairing reads nothing but the pairing and CheckOnce, which the
// record's fingerprint covers; unchanged files keep their site pointers, so
// a one-file edit re-checks only the pairings that touch the edited file.
//
// Rank: a reused finding keeps its confidence unless an input of its score
// moved — its object's census row, its writer's margin, or the object IDs
// themselves (the interner was not reused). The inferred-only set needs no
// test of its own: a kept site's barrier name and following call are in its
// file's depth-1 extract key, so a change of their inferred status
// re-extracts the file, and its pairings and sites are new. Scores
// are copy-on-write: a changed confidence goes into a fresh Finding, so a
// Result handed out earlier is never mutated. A cold run is the case of an
// empty record.
package ofence

import (
	"context"

	"ofence/internal/access"
	"ofence/internal/par"
	"ofence/internal/rank"
)

// verdictRecord is one completed run's check and rank output. It is never
// mutated after publication, so a project and its clones share it.
type verdictRecord struct {
	// fp is the options fingerprint with MinConfidence cleared: the
	// findings are recorded before the gate.
	fp string
	// pairings maps each pairing's writer site to the pairing and its
	// findings.
	pairings map[*access.Site]*checkedPairing
	// unneeded maps each unpaired or implicit-IPC site with an
	// unneeded-barrier finding to that finding.
	unneeded map[*access.Site]*Finding
	// census, and the margins in pairings, are what the findings were
	// ranked against.
	census *rank.Index
}

// checkedPairing is one pairing with its findings in check order, ranked
// under its writer's margin.
type checkedPairing struct {
	pg       *Pairing
	findings []*Finding
	margin   writerMargin
}

// writerMargin is a pairing's writer's PairStats.Margins entry; ok is false
// when the writer has none.
type writerMargin struct {
	PairMargin
	ok bool
}

// ungatedFingerprint is the options fingerprint without MinConfidence,
// which only the final gate reads.
func ungatedFingerprint(opts Options) string {
	opts.MinConfidence = 0
	return opts.Fingerprint()
}

// sameAs reports whether pg and q have the same sites, in order, the same
// common objects and the same weight. A pairing the pair record kept is
// the recorded pointer itself.
func (pg *Pairing) sameAs(q *Pairing) bool {
	if pg == q {
		return true
	}
	if pg.Weight != q.Weight || len(pg.Sites) != len(q.Sites) || len(pg.Common) != len(q.Common) {
		return false
	}
	for i, s := range pg.Sites {
		if q.Sites[i] != s {
			return false
		}
	}
	for i, o := range pg.Common {
		if q.Common[i] != o {
			return false
		}
	}
	return true
}

// verdicts is one run's check and rank state: one item per pairing of the
// result, in order, with the writer's margin in this run, then the
// unneeded-barrier findings of the unpaired and implicit-IPC sites. fresh
// marks what this run checked; its findings are not yet published, so rank
// scores them in place.
type verdicts struct {
	items         []*checkedPairing
	margins       []writerMargin
	fresh         []bool
	unneeded      []*Finding
	unneededFresh []bool
	// checked counts the pairings this run checked; total counts every
	// finding before ranking.
	checked, total int
}

// check is analysis phase 3 against the previous record (nil: none). A
// pairing equal to the record's pairing of its writer takes the recorded
// pairing's place in res.Pairings, so its recorded findings point at it;
// the other pairings are checked on a pool of workers goroutines, with ctx
// checked between pairings.
func (c *checker) check(ctx context.Context, prev *verdictRecord, res *Result, workers int) (*verdicts, error) {
	n := len(res.Pairings)
	v := &verdicts{items: make([]*checkedPairing, n), margins: make([]writerMargin, n), fresh: make([]bool, n)}
	var oldPairings map[*access.Site]*checkedPairing
	var oldUnneeded map[*access.Site]*Finding
	if prev != nil {
		oldPairings, oldUnneeded = prev.pairings, prev.unneeded
	}
	var todo []int
	for i, pg := range res.Pairings {
		m, ok := res.PairStats.Margins[pg.Writer().ID()]
		v.margins[i] = writerMargin{m, ok}
		if old := oldPairings[pg.Writer()]; old != nil && old.pg.sameAs(pg) {
			res.Pairings[i], v.items[i] = old.pg, old
			continue
		}
		v.items[i], v.fresh[i] = &checkedPairing{pg: pg}, true
		todo = append(todo, i)
	}
	par.For(len(todo), workers, func(k int) {
		if ctx.Err() == nil {
			it := v.items[todo[k]]
			it.findings = c.checkPairing(it.pg)
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	v.checked = len(todo)
	for _, it := range v.items {
		v.total += len(it.findings)
	}
	for _, sites := range [2][]*access.Site{res.Unpaired, res.ImplicitIPC} {
		for _, s := range sites {
			if f := oldUnneeded[s]; f != nil {
				v.unneeded = append(v.unneeded, f)
				v.unneededFresh = append(v.unneededFresh, false)
			} else if f := c.checkUnneeded(s, nil); f != nil {
				v.unneeded = append(v.unneeded, f)
				v.unneededFresh = append(v.unneededFresh, true)
			}
		}
	}
	v.total += len(v.unneeded)
	return v, nil
}

// record returns the verdict record of a completed run.
func (v *verdicts) record(fp string, census *rank.Index) *verdictRecord {
	rec := &verdictRecord{
		fp:       fp,
		pairings: make(map[*access.Site]*checkedPairing, len(v.items)),
		unneeded: make(map[*access.Site]*Finding, len(v.unneeded)),
		census:   census,
	}
	for _, it := range v.items {
		rec.pairings[it.pg.Writer()] = it
	}
	for _, f := range v.unneeded {
		rec.unneeded[f.Site] = f
	}
	return rec
}

// findings returns every finding in check order: each pairing's, then the
// unneeded barriers'.
func (v *verdicts) findings() []*Finding {
	out := make([]*Finding, 0, v.total)
	for _, it := range v.items {
		out = append(out, it.findings...)
	}
	return append(out, v.unneeded...)
}
