package ofence

import (
	"context"

	"ofence/internal/access"
	"ofence/internal/obs"
	"ofence/internal/rank"
	"ofence/internal/semprop"
)

// rankFindings is analysis phase 4: score every finding with the confidence
// ranker (internal/rank) and, when opts.MinConfidence > 0, drop findings
// below the gate. Scoring always runs — the gate only filters — so JSON and
// SARIF consumers see calibrated confidences even with the gate disabled.
//
// Evidence per finding:
//   - outlier census over ALL deduplicated sites (how the other uses of the
//     finding's object order their accesses), read from the run's site
//     table, which pairing built;
//   - the pairing's winning weight and probed runner-up (PairStats.Margins,
//     keyed by the pairing's writer);
//   - the finding site's window richness and inlined-provenance flag;
//   - whether the ordering rests on interprocedurally inferred semantics
//     (the site's own barrier name, or — for unneeded-barrier findings —
//     the following call the finding trusts to provide the ordering).
func rankFindings(ctx context.Context, res *Result, opts Options, tbl *access.SiteTable, workers int) {
	_, rsp := obs.Start(ctx, "rank")
	defer rsp.End()
	if len(res.Findings) == 0 {
		return
	}
	idx := rank.NewIndex(tbl)
	inferredOnly := semprop.InferredOnly(res.Inferred)
	forEachIndex(len(res.Findings), workers, func(i int) {
		f := res.Findings[i]
		f.Confidence = rank.Combine(evidenceFor(f, idx, res.PairStats.Margins, inferredOnly))
	})
	rsp.Add("ranked", int64(len(res.Findings)))
	if opts.MinConfidence > 0 {
		kept := make([]*Finding, 0, len(res.Findings))
		for _, f := range res.Findings {
			if f.Confidence >= opts.MinConfidence {
				kept = append(kept, f)
			}
		}
		rsp.Add("gated_out", int64(len(res.Findings)-len(kept)))
		res.Findings = kept
	}
}

// evidenceFor assembles the four-channel evidence for one finding.
func evidenceFor(f *Finding, idx *rank.Index, margins map[string]PairMargin, inferredOnly map[string]bool) rank.Evidence {
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
		if m, ok := margins[f.Pairing.Writer().ID()]; ok {
			ev.RunnerUp = m.RunnerUp
		}
	}
	ev.InferredSem = inferredOnly[f.Site.Name] ||
		(f.Kind == UnneededBarrier && inferredOnly[f.Site.NextBarrierName])
	return ev
}
