// Incremental check and rank.
//
// Phases 3 and 4 of AnalyzeParallel derive from the last completed run the
// way the site table and the global record do. After a run completes, the
// project publishes one immutable verdictRecord next to the pair record:
// every pairing with its ranked findings (before the MinConfidence gate),
// indexed like the pair record's pairings, the unneeded-barrier findings,
// the outlier census the findings were ranked against and every finding in
// output order. Clones share it by pointer.
//
// Check: a pairing the pair record kept — the same sites, common objects
// and weight, and so the recorded *Pairing itself — reuses the recorded
// item at the index the pair record names, with its findings. Sites are
// immutable once extracted, and checkPairing reads nothing but the pairing
// and CheckOnce, which the record's fingerprint covers; unchanged files
// keep their site pointers, so a one-file edit re-checks only the pairings
// that touch the edited file. A kept item's writer margin is its own while
// the pair record kept the previous run's PairStats.Margins map; any other
// is read from the map.
//
// Rank: a reused finding keeps its confidence unless an input of its score
// moved — its writer's margin, its object's census row, or the object IDs
// themselves (the interner was not reused). Rank visits only those
// findings: the fresh ones, the pairings whose margin moved, and, through
// the pair record's inverted index, the pairings with a finding on an
// object whose census row changed. The inferred-only set needs no test of
// its own: a kept site's barrier name and following call are in its file's
// depth-1 extract key, so a change of their inferred status re-extracts the
// file, and its pairings and sites are new. Scores are copy-on-write: a
// changed confidence goes into a fresh Finding, so a Result handed out
// earlier is never mutated. The output order derives from the record's:
// the findings that changed leave it and the new ones merge in (see
// verdicts.order in rank.go). A cold run is the case of an empty record.
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
	// items holds each pairing with its findings, indexed like the
	// pairings of the pair record published with this one.
	items []*checkedPairing
	// unneeded are the unneeded-barrier findings in check order: those of
	// the unpaired sites, then, from index implicitAt on, those of the
	// implicit-IPC sites, each part in canonical site order.
	unneeded   []*Finding
	implicitAt int
	// sorted is every finding, before the gate, in output order.
	sorted []*Finding
	// census, and the margins in items, are what the findings were ranked
	// against.
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

// verdicts is one run's check and rank state: one item per pairing of the
// result, in order, then the unneeded-barrier findings of the unpaired and
// implicit-IPC sites. fresh marks what this run checked; its findings are
// not yet published, so rank scores them in place. pairs is the run's pair
// record, which gives each pairing's recorded index and writer margin.
type verdicts struct {
	pairs         *pairRecord
	items         []*checkedPairing
	fresh         []bool
	unneeded      []*Finding
	unneededFresh []bool
	implicitAt    int
	// dropped are the findings of the previous record that this run does
	// not keep: those of the pairings it did not reuse and the unneeded
	// findings of sites it did not keep.
	dropped []*Finding
	// checked counts the pairings this run checked; total counts every
	// finding before ranking.
	checked, total int
}

// check is analysis phase 3 against the previous record (nil: none). A
// pairing the pair record kept takes the recorded item; the other pairings
// are checked on a pool of workers goroutines, with ctx checked between
// pairings.
func (c *checker) check(ctx context.Context, prev *verdictRecord, pairs *pairRecord, res *Result, workers int) (*verdicts, error) {
	n := len(res.Pairings)
	v := &verdicts{pairs: pairs, items: make([]*checkedPairing, n), fresh: make([]bool, n)}
	var todo []int
	// The recorded indices of kept pairings ascend, so the recorded items
	// between two of them are the ones this run drops.
	next := 0
	for i, pg := range res.Pairings {
		if k := int(pairs.finals[i].from); prev != nil && k >= 0 && k < len(prev.items) && prev.items[k].pg == pg {
			v.dropItems(prev.items[next:k])
			v.items[i], next = prev.items[k], k+1
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
	if prev != nil {
		v.dropItems(prev.items[next:])
		v.total = len(prev.sorted)
	}
	for _, i := range todo {
		v.total += len(v.items[i].findings)
	}
	var oldUnpaired, oldImplicit []*Finding
	if prev != nil {
		oldUnpaired, oldImplicit = prev.unneeded[:prev.implicitAt], prev.unneeded[prev.implicitAt:]
	}
	v.checkUnneeded(c, res.Unpaired, oldUnpaired)
	v.implicitAt = len(v.unneeded)
	v.checkUnneeded(c, res.ImplicitIPC, oldImplicit)
	v.total -= len(v.dropped)
	return v, nil
}

// dropItems adds the findings of recorded items this run does not reuse
// to v.dropped.
func (v *verdicts) dropItems(items []*checkedPairing) {
	for _, it := range items {
		v.dropped = append(v.dropped, it.findings...)
	}
}

// checkUnneeded appends the unneeded-barrier findings of sites, in
// canonical order, to v.unneeded. old are the previous run's findings of
// the same part, in canonical order: a site with one there keeps it, any
// other site that needs one gets a fresh one, and the rest of old is
// dropped.
func (v *verdicts) checkUnneeded(c *checker, sites []*access.Site, old []*Finding) {
	for _, s := range sites {
		if !unneededCandidate(s) {
			continue
		}
		for len(old) > 0 && old[0].Site != s && access.CompareSites(old[0].Site, s) <= 0 {
			v.dropped = append(v.dropped, old[0])
			old = old[1:]
		}
		if len(old) > 0 && old[0].Site == s {
			v.unneeded = append(v.unneeded, old[0])
			v.unneededFresh = append(v.unneededFresh, false)
			old = old[1:]
			continue
		}
		v.unneeded = append(v.unneeded, c.checkUnneeded(s, nil))
		v.unneededFresh = append(v.unneededFresh, true)
		v.total++
	}
	v.dropped = append(v.dropped, old...)
}

// record returns the verdict record of a completed run whose findings, in
// output order, are sorted.
func (v *verdicts) record(fp string, census *rank.Index, sorted []*Finding) *verdictRecord {
	return &verdictRecord{
		fp:         fp,
		items:      v.items,
		unneeded:   v.unneeded,
		implicitAt: v.implicitAt,
		sorted:     sorted,
		census:     census,
	}
}
