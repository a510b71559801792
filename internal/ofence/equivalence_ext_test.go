package ofence_test

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"ofence/internal/corpus"
	"ofence/internal/ofence"
)

func viewJSON(t *testing.T, res *ofence.Result) string {
	t.Helper()
	b, err := json.Marshal(res.View())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

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

// TestIncrementalEquivalenceFixtures is the correctness bar of the
// incremental pipeline: for every corpus fixture with a published fix, a
// warm project that applies the fix via ReplaceSource and re-analyzes must
// produce byte-identical JSON to a cold project built directly with the
// fixed file — at depth 0 and in interprocedural mode. At depth 0 it also
// asserts that exactly the edited file was recomputed.
func TestIncrementalEquivalenceFixtures(t *testing.T) {
	fixtures := corpus.Fixtures()
	all := make([]ofence.SourceFile, 0, len(fixtures))
	for _, fx := range fixtures {
		all = append(all, ofence.SourceFile{Name: fx.Name, Src: fx.Source})
	}

	for _, depth := range []int{0, 2} {
		opts := ofence.DefaultOptions()
		opts.InterprocDepth = depth
		for i, fx := range fixtures {
			if fx.Fixed == "" {
				continue
			}
			t.Run(fmt.Sprintf("depth%d/%s", depth, fx.Name), func(t *testing.T) {
				// Cold: the fixed file from the start.
				cold := ofence.NewProject()
				for j, sf := range all {
					if j == i {
						cold.AddSource(sf.Name, fx.Fixed)
						continue
					}
					cold.AddSource(sf.Name, sf.Src)
				}
				coldJSON := viewJSON(t, mustAnalyze(t, cold, opts))

				// Warm: analyze the buggy set, apply the fix, re-analyze.
				warm := ofence.NewProject()
				warm.AddSources(all)
				preJSON := viewJSON(t, mustAnalyze(t, warm, opts))
				warm.ReplaceSource(fx.Name, fx.Fixed)
				res := mustAnalyze(t, warm, opts)
				if got := viewJSON(t, res); got != coldJSON {
					t.Errorf("incremental result differs from cold analysis:\n%s\nvs\n%s", got, coldJSON)
				}
				if depth == 0 {
					if got := res.Incremental; got.FilesRecomputed != 1 || got.FilesReused != len(all)-1 {
						t.Errorf("recomputed=%d reused=%d, want 1/%d", got.FilesRecomputed, got.FilesReused, len(all)-1)
					}
				} else if res.Incremental.FilesRecomputed < 1 {
					t.Errorf("recomputed=%d, want >= 1", res.Incremental.FilesRecomputed)
				}

				// Reverting the edit replays the original analysis verbatim.
				warm.ReplaceSource(fx.Name, fx.Source)
				if got := viewJSON(t, mustAnalyze(t, warm, opts)); got != preJSON {
					t.Errorf("revert result differs from original analysis")
				}
			})
		}
	}
}
