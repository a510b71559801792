package ofence_test

import (
	"context"
	"runtime"
	"testing"

	"ofence/internal/corpus"
	"ofence/internal/cparser"
	"ofence/internal/cpp"
	"ofence/internal/ctoken"
	"ofence/internal/ofence"
)

// benchFrontendSources builds the paper-scale default corpus (~300 files,
// ~1800 generated patterns) the frontend benchmark runs over.
func benchFrontendSources() []ofence.SourceFile {
	return corpus.Generate(corpus.DefaultConfig(42)).Sources()
}

// frontendNew runs the front end over the corpus: zero-copy byte scanner
// with identifiers interned into a shared SymTab, arena-batched AST
// allocation, and the fingerprint streamed during preprocessing
// (Fingerprint is a cached read).
func frontendNew(srcs []ofence.SourceFile) int {
	syms := ctoken.NewSymTab()
	nodes := 0
	for _, sf := range srcs {
		pre := cpp.Preprocess(sf.Name, sf.Src, cpp.Options{Syms: syms})
		pre.Fingerprint(sf.Name)
		f := cparser.New(pre.Tokens).ParseFile(sf.Name)
		nodes += len(f.Decls)
	}
	return nodes
}

// BenchmarkFrontendCold measures the cold front end over the default
// corpus. "interned" is preprocess+parse, single-threaded; "pipelined8" is
// the whole-project cold analysis, with its fused per-file schedule, at
// Workers=8/GOMAXPROCS=8.
// DESIGN §11 keeps the overhaul's recorded bar against the pre-overhaul
// front end, which is retired; bench/ is the live measurement.
func BenchmarkFrontendCold(b *testing.B) {
	srcs := benchFrontendSources()
	b.Run("interned", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			frontendNew(srcs)
		}
	})
	b.Run("pipelined8", func(b *testing.B) {
		old := runtime.GOMAXPROCS(8)
		defer runtime.GOMAXPROCS(old)
		o := ofence.DefaultOptions()
		o.Workers = 8
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := ofence.NewProject()
			if _, err := p.AnalyzeSourcesCtx(context.Background(), srcs, o); err != nil {
				b.Fatal(err)
			}
		}
	})
}
