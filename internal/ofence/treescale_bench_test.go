package ofence_test

import (
	"context"
	"testing"

	"ofence/internal/ofence"
	"ofence/internal/sitegen"
)

// BenchmarkTreescaleCold measures cold full-run analysis (parse through
// ranking) of a generated 256-file kernel tree at InterprocDepth=1,
// Workers=8 ("scc8": sharded call-graph build, SCC-scheduled semantics
// fixpoint, memoized observed-input extract keys, sharded dedup and
// census).
// CI smokes it at one iteration. BENCH_treescale.json records the tree-scale
// overhaul's comparison against the sequential global phases, which are
// retired; bench/ is the live measurement.
func BenchmarkTreescaleCold(b *testing.B) {
	tr := sitegen.GenerateTree(sitegen.DefaultTreeSpec(256, 42))
	opts := ofence.DefaultOptions()
	opts.InterprocDepth = 1
	opts.Workers = 8
	b.Run("scc8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := treeProject(tr).AnalyzeParallel(context.Background(), opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}
