package ofence

import (
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
// (internal/rank), sort them by position and, when opts.MinConfidence > 0,
// drop those below the gate. Scoring always runs — the gate only filters —
// so JSON and SARIF consumers see calibrated confidences even with the gate
// disabled. A fresh finding is scored in place; a finding from prev keeps
// its score unless an input of it moved (see verdicts.go), and a changed
// score goes into a copy. ctx is checked between pairings; a canceled run
// returns a nil record.
//
// Evidence per finding:
//   - outlier census over ALL deduplicated sites (how the other uses of the
//     finding's object order their accesses), read from the run's site
//     table, which pairing built; when d, the table's diff from the one
//     prev's census counts, is non-nil, the census derives from prev's;
//   - the pairing's winning weight and probed runner-up (its writer's
//     PairStats.Margins entry);
//   - the finding site's window richness and inlined-provenance flag;
//   - whether the ordering rests on interprocedurally inferred semantics
//     (the site's own barrier name, or — for unneeded-barrier findings —
//     the following call the finding trusts to provide the ordering).
func (v *verdicts) rank(ctx context.Context, prev *verdictRecord, fp string, res *Result, opts Options, tbl *access.SiteTable, d *access.TableDiff, inferredOnly map[string]bool, workers int) *verdictRecord {
	_, rsp := obs.Start(ctx, "rank")
	defer rsp.End()
	var idx *rank.Index
	if d != nil {
		idx = prev.census.Derive(tbl, d)
	} else {
		idx = rank.NewIndex(tbl)
	}
	// Every recorded score is stale when the IDs moved; otherwise only those
	// of objects whose census row did.
	all := prev == nil || !res.PairStats.InternerReused
	var moved map[access.Object]bool
	if !all {
		for _, id := range idx.ChangedRows(prev.census) {
			if moved == nil {
				moved = map[access.Object]bool{}
			}
			moved[tbl.Interner().Object(id)] = true
		}
	}
	score := func(f *Finding, m writerMargin) float64 {
		return rank.Combine(evidenceFor(f, idx, m, inferredOnly))
	}
	// rescore re-scores a recorded finding: f itself when its score is
	// unchanged, else a copy carrying the new one.
	rescore := func(f *Finding, m writerMargin) *Finding {
		c := score(f, m)
		if c == f.Confidence {
			return f
		}
		nf := *f
		nf.Confidence = c
		return &nf
	}
	var rescored, reused atomic.Int64

	par.For(len(v.items), workers, func(i int) {
		if ctx.Err() != nil {
			return
		}
		it, m := v.items[i], v.margins[i]
		if v.fresh[i] {
			for _, f := range it.findings {
				f.Confidence = score(f, m)
			}
			it.margin = m
			rescored.Add(int64(len(it.findings)))
			return
		}
		marginMoved := m != it.margin
		var fs []*Finding // a copy of it.findings once a score changed
		n := 0
		for j, f := range it.findings {
			if !all && !marginMoved && !moved[f.Object] {
				continue
			}
			n++
			if nf := rescore(f, m); nf != f {
				if fs == nil {
					fs = slices.Clone(it.findings)
				}
				fs[j] = nf
			}
		}
		rescored.Add(int64(n))
		reused.Add(int64(len(it.findings) - n))
		if fs == nil {
			if !marginMoved {
				return
			}
			fs = it.findings
		}
		v.items[i] = &checkedPairing{pg: it.pg, findings: fs, margin: m}
	})
	for k, f := range v.unneeded {
		switch {
		case v.unneededFresh[k]:
			f.Confidence = score(f, writerMargin{})
		case all:
			v.unneeded[k] = rescore(f, writerMargin{})
		default:
			reused.Add(1)
			continue
		}
		rescored.Add(1)
	}
	if ctx.Err() != nil {
		return nil
	}
	rsp.Add("findings_rescored", rescored.Load())
	rsp.Add("findings_reused", reused.Load())

	out := v.findings()
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
	rsp.Add("ranked", int64(len(out)))
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
	return v.record(fp, idx)
}

// evidenceFor assembles the four-channel evidence for one finding, whose
// pairing's writer has margin m.
func evidenceFor(f *Finding, idx *rank.Index, m writerMargin, inferredOnly map[string]bool) rank.Evidence {
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
		ev.RunnerUp = -1
		if m.ok {
			ev.RunnerUp = m.RunnerUp
		}
	}
	ev.InferredSem = inferredOnly[f.Site.Name] ||
		(f.Kind == UnneededBarrier && inferredOnly[f.Site.NextBarrierName])
	return ev
}
