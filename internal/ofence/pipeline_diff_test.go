package ofence_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"ofence/internal/corpus"
	"ofence/internal/ofence"
)

// pipelineDiffSources builds a deterministic multi-pattern corpus exercising
// every site shape the analysis knows.
func pipelineDiffSources() []ofence.SourceFile {
	cfg := corpus.DefaultConfig(1234)
	cfg.Counts = map[corpus.PatternKind]int{
		corpus.InitFlag:     8,
		corpus.Seqcount:     3,
		corpus.ImplicitIPC:  3,
		corpus.Unneeded:     2,
		corpus.Misplaced:    3,
		corpus.RepeatedRead: 2,
		corpus.WrongType:    2,
		corpus.AcqRel:       2,
		corpus.CrossFile:    2,
	}
	return corpus.Generate(cfg).Sources()
}

// TestPipelinedMatchesClassicAndLegacyFrontend is the frontend overhaul's
// correctness bar: the fused pipelined schedule must reproduce the golden
// record, which the retired legacy front end (rune lexer, arena-free
// parser, no canonicalization) and the retired classic schedule (every file
// parsed to a barrier before extraction) produced as well, at every worker
// count and GOMAXPROCS setting.
func TestPipelinedMatchesClassicAndLegacyFrontend(t *testing.T) {
	goldens := loadGoldens(t)
	srcs := pipelineDiffSources()
	opts := ofence.DefaultOptions()

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, gmp := range []int{1, 2, 8} {
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("gomaxprocs%d/workers%d", gmp, workers), func(t *testing.T) {
				runtime.GOMAXPROCS(gmp)
				o := opts
				o.Workers = workers
				p := ofence.NewProject()
				res, err := p.AnalyzeSourcesCtx(context.Background(), srcs, o)
				if err != nil {
					t.Fatal(err)
				}
				checkGolden(t, goldens, "diffsrc/depth0", res)
			})
		}
	}
}

// TestPipelinedReusesArtifacts pins the fused schedule's incremental
// semantics: a second run reuses every file in place, a whitespace edit
// changes nothing downstream of preprocess, and a real edit recomputes
// exactly the changed file.
func TestPipelinedReusesArtifacts(t *testing.T) {
	srcs := pipelineDiffSources()
	opts := ofence.DefaultOptions()
	p := ofence.NewProject()
	res, err := p.AnalyzeSourcesCtx(context.Background(), srcs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Incremental; got.FilesRecomputed != len(srcs) {
		t.Fatalf("cold run recomputed %d files, want %d", got.FilesRecomputed, len(srcs))
	}
	warm := mustAnalyze(t, p, opts)
	if got := warm.Incremental; got.FilesReused != len(srcs) || got.FilesRecomputed != 0 {
		t.Errorf("warm run reused=%d recomputed=%d, want %d/0", got.FilesReused, got.FilesRecomputed, len(srcs))
	}
	if a, b := viewJSON(t, res), viewJSON(t, warm); a != b {
		t.Errorf("warm pipelined result differs from cold")
	}

	// Whitespace-only edit: preprocessed content unchanged, everything reused.
	p.ReplaceSource(srcs[0].Name, srcs[0].Src+"\n\n")
	edited := mustAnalyze(t, p, opts)
	if got := edited.Incremental; got.FilesReused != len(srcs) || got.FilesRecomputed != 0 {
		t.Errorf("after whitespace edit reused=%d recomputed=%d, want %d/0", got.FilesReused, got.FilesRecomputed, len(srcs))
	}

	// Real edit: exactly the changed file recomputes.
	p.ReplaceSource(srcs[0].Name, srcs[0].Src+"\nint pipeline_extra;\n")
	edited = mustAnalyze(t, p, opts)
	if got := edited.Incremental; got.FilesRecomputed != 1 || got.FilesReused != len(srcs)-1 {
		t.Errorf("after edit recomputed=%d reused=%d, want 1/%d", got.FilesRecomputed, got.FilesReused, len(srcs)-1)
	}
}

// TestFrontendMetersReported checks the meters behind the extract-span
// counters: a cold pipelined run records the corpus's token volume and the
// parser's arena footprint.
func TestFrontendMetersReported(t *testing.T) {
	srcs := pipelineDiffSources()
	p := ofence.NewProject()
	res, err := p.AnalyzeSourcesCtx(context.Background(), srcs, ofence.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sites) == 0 {
		t.Fatal("corpus produced no sites")
	}
	tokens, arena := p.FrontendMetersForTest()
	if tokens == 0 {
		t.Error("frontend token meter stayed zero")
	}
	if arena == 0 {
		t.Error("frontend arena meter stayed zero")
	}
}
