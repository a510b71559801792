package ofence

import (
	"cmp"
	"context"
	"slices"
	"sort"
	"sync/atomic"

	"ofence/internal/access"
	"ofence/internal/obs"
	"ofence/internal/par"
	"ofence/internal/rank"
)

// rank is analysis phase 4: score the findings with the confidence ranker
// (internal/rank), order them by position and, when opts.MinConfidence > 0,
// drop those below the gate. Scoring always runs — the gate only filters —
// so JSON and SARIF consumers see calibrated confidences even with the gate
// disabled. A fresh finding is scored in place; a finding from prev, the
// record the run derives from, keeps its score unless an input of it
// moved (see verdicts.go), and a changed score goes into a copy. ctx is
// checked between pairings; a canceled run returns a nil record.
//
// Evidence per finding:
//   - outlier census over ALL deduplicated sites (how the other uses of the
//     finding's object order their accesses), read from the run's site
//     table, which pairing built; it derives from prev's census with d, the
//     table's diff from the table prev's census counts;
//   - the pairing's winning weight and its writer's probed runner-up (see
//     verdicts.margin);
//   - the finding site's window richness and inlined-provenance flag;
//   - whether the ordering rests on interprocedurally inferred semantics
//     (the site's own barrier name, or — for unneeded-barrier findings —
//     the following call the finding trusts to provide the ordering).
func (v *verdicts) rank(ctx context.Context, prev *verdictRecord, res *Result, opts Options, tbl *access.SiteTable, d *access.TableDiff, inferredOnly map[string]bool, workers int) *verdictRecord {
	_, rsp := obs.Start(ctx, "rank")
	defer rsp.End()
	idx := prev.census.Derive(tbl, d)
	// A kept finding's score is stale when its pairing's writer margin or
	// its object's census row moved. With no pairing kept there is nothing
	// to compare.
	var moved []uint32
	if v.checked < len(v.items) {
		moved = idx.ChangedRows(prev.census)
	}
	jobs := v.rescoreJobs(moved, tbl.Interner())
	score := func(f *Finding, runnerUp int) float64 {
		return rank.Combine(evidenceFor(f, idx, runnerUp, inferredOnly))
	}
	// rescore re-scores a recorded finding: f itself when its score is
	// unchanged, else a copy carrying the new one.
	rescore := func(f *Finding, m int) *Finding {
		c := score(f, m)
		if c == f.Confidence {
			return f
		}
		nf := *f
		nf.Confidence = c
		return &nf
	}
	var rescored, visited atomic.Int64
	// replaced[g] lists the positions at which job g's item took a copy of
	// a recorded finding of was[g].
	replaced, was := make([][]int32, len(jobs)), make([][]*Finding, len(jobs))
	par.For(len(jobs), workers, func(g int) {
		if ctx.Err() != nil {
			return
		}
		job := jobs[g]
		it, m := v.items[job.item], v.margin(job.item)
		if v.fresh[job.item] {
			for _, f := range it.findings {
				f.Confidence = score(f, m)
			}
			visited.Add(int64(len(it.findings)))
			rescored.Add(int64(len(it.findings)))
			return
		}
		var fs []*Finding // a copy of it.findings once a score changed
		n := 0
		for j, f := range it.findings {
			if job.objs != nil && !slices.Contains(job.objs, f.Object) {
				continue
			}
			n++
			if nf := rescore(f, m); nf != f {
				if fs == nil {
					fs = slices.Clone(it.findings)
				}
				fs[j] = nf
				replaced[g], was[g] = append(replaced[g], int32(j)), it.findings
			}
		}
		visited.Add(int64(len(it.findings)))
		rescored.Add(int64(n))
		if fs != nil {
			v.items[job.item] = &checkedPairing{pg: it.pg, findings: fs}
		}
	})
	if ctx.Err() != nil {
		return nil
	}

	// What changed leaves the recorded order and the new findings merge in.
	var adds []placed
	drop := v.dropped
	for g, job := range jobs {
		fs := v.items[job.item].findings
		if v.fresh[job.item] {
			for j, f := range fs {
				adds = append(adds, placed{f, int32(job.item), int32(j)})
			}
			continue
		}
		for _, j := range replaced[g] {
			drop = append(drop, was[g][j])
			adds = append(adds, placed{fs[j], int32(job.item), j})
		}
	}
	unneededItem := int32(len(v.items))
	for k, f := range v.unneeded {
		if !v.unneededFresh[k] {
			continue
		}
		visited.Add(1)
		rescored.Add(1)
		f.Confidence = score(f, -1)
		adds = append(adds, placed{f, unneededItem, int32(k)})
	}
	if ctx.Err() != nil {
		return nil
	}
	out := v.order(prev.sorted, drop, adds)
	rsp.Add("findings_visited", visited.Load())
	rsp.Add("findings_merged", int64(len(adds)))
	rsp.Add("findings_rescored", rescored.Load())
	rsp.Add("findings_reused", int64(len(out))-rescored.Load())
	rsp.Add("ranked", int64(len(out)))
	rec := v.record(idx, out)
	if opts.MinConfidence > 0 {
		kept := make([]*Finding, 0, len(out))
		for _, f := range out {
			if f.Confidence >= opts.MinConfidence {
				kept = append(kept, f)
			}
		}
		rsp.Add("gated_out", int64(len(out)-len(kept)))
		out = kept
	}
	res.Findings = out
	return rec
}

// rescoreJob is one pairing item rank visits: every finding of it, or,
// when objs is non-nil, only its findings on those objects.
type rescoreJob struct {
	item int
	objs []access.Object
}

// writer returns the site index of pairing i's writer.
func (v *verdicts) writer(i int) int32 {
	return v.pairs.finals.At(i).writer
}

// margin returns the margin of pairing i's writer: its candidate's
// runner-up weight, or -1 when the writer has no runner-up or does not
// propose (its candidate was left to an implicit IPC).
func (v *verdicts) margin(i int) int {
	return v.pairs.bests.At(int(v.writer(i))).margin()
}

// rescoreJobs lists the items rank visits, by ascending item: every fresh
// item; every kept item whose writer's margin the search moved; and each
// item with a finding on an object of moved (census rows, by ID, of
// interner in), through the pair record's inverted index. A finding's
// object is one of its pairing's common objects, which its writer
// accesses, so its writer's postings hold it.
func (v *verdicts) rescoreJobs(moved []uint32, in *access.Interner) []rescoreJob {
	var jobs []rescoreJob
	pairs, remargined := v.pairs, v.remargined
	for i, fresh := range v.fresh {
		if !fresh {
			// Writers ascend with i, as the remargined ones do.
			w := v.writer(i)
			for len(remargined) > 0 && remargined[0] < w {
				remargined = remargined[1:]
			}
			if len(remargined) == 0 || remargined[0] != w {
				continue
			}
		}
		jobs = append(jobs, rescoreJob{item: i})
	}
	whole := len(jobs)
	for _, o := range moved {
		for _, r := range pairs.postings(o) {
			k := int(*pairs.pairingOf.At(int(r.site))) - 1
			if k < 0 {
				continue
			}
			if _, ok := slices.BinarySearchFunc(jobs[:whole], k, func(j rescoreJob, k int) int { return cmp.Compare(j.item, k) }); ok {
				continue
			}
			jobs = append(jobs, rescoreJob{item: k, objs: []access.Object{in.Object(o)}})
		}
	}
	if len(jobs) == whole {
		return jobs
	}
	// One job per item: the object jobs of one item fold into one.
	slices.SortStableFunc(jobs, func(a, b rescoreJob) int { return cmp.Compare(a.item, b.item) })
	out := jobs[:1]
	for _, j := range jobs[1:] {
		if last := &out[len(out)-1]; last.item == j.item {
			last.objs = append(last.objs, j.objs...)
			continue
		}
		out = append(out, j)
	}
	return out
}

// placed is a finding of this run with its place in check order: the
// index of its pairing's item and its position among the item's findings,
// or, for an unneeded-barrier finding, len(items) and its position in
// v.unneeded.
type placed struct {
	f         *Finding
	item, pos int32
}

// compareKey compares two findings by the output order's key: file, line
// and kind.
func compareKey(a, b *Finding) int {
	return cmp.Or(cmp.Compare(a.Site.File, b.Site.File), cmp.Compare(a.Site.Pos.Line, b.Site.Pos.Line), cmp.Compare(a.Kind, b.Kind))
}

// comparePlaced is the output order of this run's findings: by file, line
// and kind, then in check order.
func comparePlaced(a, b placed) int {
	return cmp.Or(compareKey(a.f, b.f), cmp.Compare(a.item, b.item), cmp.Compare(a.pos, b.pos))
}

// before reports whether a sorts before b, a finding this run keeps from
// the previous one. Items are in the canonical order of their pairings'
// writers, and one pairing's findings all lie in one item.
func (v *verdicts) before(a placed, b *Finding) bool {
	if c := compareKey(a.f, b); c != 0 {
		return c < 0
	}
	ap, bp := a.f.Pairing, b.Pairing
	switch {
	case bp == nil:
		return ap != nil || int(a.pos) < slices.Index(v.unneeded, b)
	case ap == nil:
		return false
	case ap != bp:
		return access.CompareSites(ap.Writer(), bp.Writer()) < 0
	}
	return int(a.pos) < slices.Index(v.items[a.item].findings, b)
}

// order returns the run's findings in output order: sorted, the previous
// run's, without the findings of drop, and with those of adds merged in;
// sorted itself when neither has any. Kept findings keep their relative
// order, so only the added ones are compared; a cold run, whose sorted is
// empty, sorts its adds.
func (v *verdicts) order(sorted, drop []*Finding, adds []placed) []*Finding {
	if len(drop) == 0 && len(adds) == 0 {
		return sorted
	}
	slices.SortFunc(adds, comparePlaced)
	at := make([]int, 0, len(drop))
	for _, f := range drop {
		i, _ := slices.BinarySearchFunc(sorted, f, compareKey)
		for sorted[i] != f {
			i++
		}
		at = append(at, i)
	}
	slices.Sort(at)
	out := make([]*Finding, len(sorted)-len(at)+len(adds))
	n, last := 0, 0
	for _, i := range at {
		n += copy(out[n:], sorted[last:i])
		last = i + 1
	}
	n += copy(out[n:], sorted[last:])
	// Merge from the back: out[:n] holds the kept findings, and each added
	// one, largest first, moves the kept ones after it into place.
	for k := len(adds) - 1; k >= 0; k-- {
		a := adds[k]
		x := sort.Search(n, func(j int) bool { return v.before(a, out[j]) })
		copy(out[x+k+1:], out[x:n])
		out[x+k] = a.f
		n = x
	}
	return out
}

// evidenceFor assembles the four-channel evidence for one finding, whose
// pairing's writer has runner-up weight runnerUp (see verdicts.margin).
func evidenceFor(f *Finding, idx *rank.Index, runnerUp int, inferredOnly map[string]bool) rank.Evidence {
	ev := rank.Evidence{
		Richness: f.Site.Richness(),
		Inlined:  f.Site.Unit != nil && f.Site.Unit.InlinedFrom != "",
	}
	if f.Object != (access.Object{}) {
		ev.Outlier = idx.Support(f.Object, f.Site)
	}
	if f.Pairing != nil {
		ev.HasPairing = true
		ev.Weight = f.Pairing.Weight
		ev.RunnerUp = runnerUp
	}
	ev.InferredSem = inferredOnly[f.Site.Name] ||
		(f.Kind == UnneededBarrier && inferredOnly[f.Site.NextBarrierName])
	return ev
}
