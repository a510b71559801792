// Incremental check and rank.
//
// Phases 3 and 4 of AnalyzeParallel derive from the last completed run the
// way the site table and the pairing do. The run record (see
// AnalyzeParallel) holds one immutable verdictRecord next to the pair
// record: every pairing with its ranked findings (before the MinConfidence
// gate), indexed like the pair record's pairings, the unneeded-barrier
// findings, the outlier census the findings were ranked against and every
// finding in output order.
//
// Check: a pairing the pair record kept — the same sites, common objects
// and weight, and so the recorded *Pairing itself — reuses the recorded
// item at the index the pair record names, with its findings. Sites are
// immutable once extracted, and checkPairing reads nothing but the pairing
// and CheckOnce, which the run record's fingerprint covers; unchanged
// files keep their site pointers, so a one-file edit re-checks only the
// pairings that touch the edited file.
//
// Rank: a pairing's writer margin is its writer's candidate in the pair
// record. A reused finding keeps its confidence unless an input of its
// score moved — its writer's margin or its object's census row; the object
// IDs themselves do not move, since a run whose table could not keep the
// interner derives from the empty record. Rank visits only those
// findings: the fresh ones, the kept pairings whose writer's margin the
// search moved (a writer that was not searched keeps its candidate), and,
// through the pair record's inverted index, the pairings with a finding on
// an object whose census row changed. The inferred-only set needs no test of
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
// mutated after publication, so a project and its clones share it. Its
// findings are recorded before the MinConfidence gate.
type verdictRecord struct {
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
	// census is the outlier census the findings were ranked against.
	census *rank.Index
}

// checkedPairing is one pairing with its findings in check order.
type checkedPairing struct {
	pg       *Pairing
	findings []*Finding
}

// ungatedFingerprint is the options fingerprint without MinConfidence,
// which only the final gate reads: a run record is recorded under it.
func ungatedFingerprint(opts Options) string {
	opts.MinConfidence = 0
	return opts.Fingerprint()
}

// verdicts is one run's check and rank state: one item per pairing of the
// result, in order, then the unneeded-barrier findings of the unpaired and
// implicit-IPC sites. fresh marks what this run checked; its findings are
// not yet published, so rank scores them in place. pairs is the run's pair
// record, which gives each pairing's recorded index and writer margin, and
// remargined the writers whose margin this run's search moved, ascending.
type verdicts struct {
	pairs         *pairRecord
	remargined    []int32
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

// check is analysis phase 3 against prev, the record the run derives
// from, and the run's pairing pr. A pairing the pair record kept takes the
// recorded item; the other pairings are checked on a pool of workers
// goroutines, with ctx checked between pairings.
func (c *checker) check(ctx context.Context, prev *verdictRecord, pr *pairer, res *Result, workers int) (*verdicts, error) {
	n := len(res.Pairings)
	pairs := pr.rec
	v := &verdicts{pairs: pairs, remargined: pr.remargined, items: make([]*checkedPairing, n), fresh: make([]bool, n)}
	var todo []int
	// The recorded indices of kept pairings ascend, so the recorded items
	// between two of them are the ones this run drops.
	next := 0
	for i, pg := range res.Pairings {
		if k := int(pr.from[i]); k >= 0 {
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
	v.dropItems(prev.items[next:])
	v.total = len(prev.sorted)
	for _, i := range todo {
		v.total += len(v.items[i].findings)
	}
	v.checkUnneeded(c, res.Unpaired, prev.unneeded[:prev.implicitAt])
	v.implicitAt = len(v.unneeded)
	v.checkUnneeded(c, res.ImplicitIPC, prev.unneeded[prev.implicitAt:])
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
func (v *verdicts) record(census *rank.Index, sorted []*Finding) *verdictRecord {
	return &verdictRecord{
		items:      v.items,
		unneeded:   v.unneeded,
		implicitAt: v.implicitAt,
		sorted:     sorted,
		census:     census,
	}
}
