package ofence_test

import (
	"math/rand"
	"testing"

	"ofence/internal/ofence"
	"ofence/internal/sitegen"
)

// BenchmarkWarmEditDepth0 measures one warm edit at InterprocDepth 0 on
// the 2,048-file generated tree: one integer literal of a random file
// changes, then AnalyzeParallel runs. The edited file is preprocessed,
// parsed and extracted again; the rest of the run's cost is the per-run
// work over every file, site and finding: site order, pairing, check and
// rank.
func BenchmarkWarmEditDepth0(b *testing.B) { benchmarkWarmEdit(b, 0) }

// BenchmarkWarmEditDepth1 measures the same edit at InterprocDepth 1. A
// literal edit changes no call-graph summary, so the global phases are cut
// off and the run's cost is the per-run work over every file and site:
// extract keys, site dedup and order, pairing, check and rank.
func BenchmarkWarmEditDepth1(b *testing.B) { benchmarkWarmEdit(b, 1) }

func benchmarkWarmEdit(b *testing.B, depth int) {
	tr := sitegen.GenerateTree(sitegen.DefaultTreeSpec(2048, 1))
	opts := ofence.DefaultOptions()
	opts.InterprocDepth = depth
	p := treeProject(tr)
	mustAnalyze(b, p, opts)
	cur := make(map[string]string, len(tr.Files))
	for _, f := range tr.Files {
		cur[f.Name] = f.Src
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		name := tr.Files[rng.Intn(len(tr.Files))].Name
		cur[name] = literalEdit(b, rng, cur[name])
		b.StartTimer()
		p.ReplaceSource(name, cur[name])
		mustAnalyze(b, p, opts)
	}
}
