package ofence_test

import (
	"context"
	"testing"

	"ofence/internal/ofence"
)

// FuzzFrontendAnalysisDiff fuzzes the analysis end to end: for any input
// the pipelined analysis must serialize byte-identically at Workers 1 and
// 8, catching scheduling-dependent divergence introduced anywhere between
// the scanner and the report — identifier-interning races included, since
// findings carry identifier strings canonicalized through the shared
// SymTab. The seeds are golden cases too (TestGoldens), so their output is
// pinned as well.
func FuzzFrontendAnalysisDiff(f *testing.F) {
	for _, s := range frontendFuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<15 {
			t.Skip("oversized input")
		}
		srcs := []ofence.SourceFile{{Name: "fuzz.c", Src: src}}
		var views []string
		for _, workers := range []int{1, 8} {
			opts := ofence.DefaultOptions()
			opts.Workers = workers
			res, err := ofence.NewProject().AnalyzeSourcesCtx(context.Background(), srcs, opts)
			if err != nil {
				t.Fatal(err)
			}
			views = append(views, viewJSON(t, res))
		}
		if views[0] != views[1] {
			t.Errorf("analysis differs between Workers 1 and 8\n1: %s\n8: %s", views[0], views[1])
		}
	})
}
