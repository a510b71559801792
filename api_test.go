package ofence_test

import (
	"context"
	"strings"
	"testing"

	ofence "ofence"
)

// The public facade must carry a full detect → patch → validate round trip
// without touching internal packages.

const apiSrc = `
#include <asm/barrier.h>
struct pkt { int len; int ready; };
void pkt_publish(struct pkt *p) {
	p->len = 100;
	smp_wmb();
	p->ready = 1;
}
void pkt_consume(struct pkt *p) {
	smp_rmb();
	if (!p->ready)
		return;
	use(p->len);
}`

// mustAnalyze runs AnalyzeParallel under a background context and fails
// the test on error.
func mustAnalyze(tb testing.TB, p *ofence.Project, opts ofence.Options) *ofence.Result {
	tb.Helper()
	res, err := p.AnalyzeParallel(context.Background(), opts)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

func TestPublicAPIRoundTrip(t *testing.T) {
	proj := ofence.NewProject()
	ofence.RegisterKernelHeaders(proj)
	proj.AddSource("net/pkt.c", apiSrc)
	res := mustAnalyze(t, proj, ofence.DefaultOptions())
	for _, err := range res.ParseErrors {
		t.Fatalf("parse: %v", err)
	}
	if len(res.Pairings) != 1 {
		t.Fatalf("pairings = %d", len(res.Pairings))
	}

	var misplaced *ofence.Finding
	for _, f := range res.Findings {
		if f.Kind == ofence.MisplacedAccess {
			misplaced = f
		}
	}
	if misplaced == nil {
		t.Fatalf("no misplaced finding: %v", res.Findings)
	}

	p, err := ofence.GeneratePatch(misplaced)
	if err != nil {
		t.Fatalf("GeneratePatch: %v", err)
	}
	if !strings.Contains(p.Diff, "smp_rmb") {
		t.Errorf("patch diff:\n%s", p.Diff)
	}

	v, err := ofence.ValidateFinding(misplaced)
	if err != nil {
		t.Fatalf("ValidateFinding: %v", err)
	}
	if !v.Confirmed {
		t.Errorf("finding not litmus-confirmed: %v", v)
	}

	// JSON view.
	view := res.View()
	if view.Sites != 2 || len(view.Findings) == 0 {
		t.Errorf("view = %+v", view)
	}
}

func TestPublicAPIBatchHelpers(t *testing.T) {
	proj := ofence.NewProject()
	proj.AddSource("x.c", apiSrc)
	res := mustAnalyze(t, proj, ofence.DefaultOptions())
	patches, failed := ofence.GeneratePatches(res.Findings)
	if len(patches) == 0 {
		t.Error("no patches")
	}
	_ = failed
	verdicts := ofence.ValidateFindings(res.Findings)
	if len(verdicts) == 0 {
		t.Error("no verdicts")
	}
	for _, v := range verdicts {
		if !v.Confirmed {
			t.Errorf("unconfirmed: %v", v)
		}
	}
}

func TestPublicAPIIncremental(t *testing.T) {
	proj := ofence.NewProject()
	proj.AddSource("x.c", apiSrc)
	opts := ofence.DefaultOptions()
	res := mustAnalyze(t, proj, opts)
	before := len(res.Findings)
	if before == 0 {
		t.Fatal("no findings before fix")
	}
	fixed := strings.Replace(apiSrc, "smp_rmb();\n\tif (!p->ready)\n\t\treturn;", "if (!p->ready)\n\t\treturn;\n\tsmp_rmb();", 1)
	if fixed == apiSrc {
		t.Fatal("fixture replace failed")
	}
	proj.ReplaceSource("x.c", fixed)
	res = mustAnalyze(t, proj, opts)
	for _, f := range res.Findings {
		if f.Kind == ofence.MisplacedAccess {
			t.Errorf("fixed source still flagged: %v", f)
		}
	}
}

func TestPublicAPIAnalyzeParallel(t *testing.T) {
	proj := ofence.NewProject()
	proj.AddSources([]ofence.SourceFile{{Name: "x.c", Src: apiSrc}})
	res, err := proj.AnalyzeParallel(context.Background(), ofence.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairings) != 1 {
		t.Fatalf("pairings = %d", len(res.Pairings))
	}
	seq := mustAnalyze(t, proj.Clone(), ofence.DefaultOptions())
	if len(seq.Findings) != len(res.Findings) {
		t.Errorf("parallel findings %d != sequential %d", len(res.Findings), len(seq.Findings))
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := proj.AnalyzeParallel(ctx, ofence.DefaultOptions()); err != context.Canceled {
		t.Errorf("canceled analysis: err = %v", err)
	}
}
