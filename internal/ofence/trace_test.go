package ofence

import (
	"context"
	"fmt"
	"testing"

	"ofence/internal/obs"
)

// TestTraceSpansUnderAnalyzeParallel drives the real pipeline with many
// files and workers under a shared tracer and asserts the span forest it
// records: every stage present, per-file extraction spans parented under
// the extract stage, every front-end span under the analyze root (sources
// are only recorded before the run, so the front end runs inside it), and
// counters matching the result. Run under -race by make race — this is the
// concurrent-span-creation coverage for the obs layer in its production
// call shape.
func TestTraceSpansUnderAnalyzeParallel(t *testing.T) {
	const files = 8
	srcs := parallelTestSources(files)
	for _, depth := range []int{0, 1} {
		opts := DefaultOptions()
		opts.Workers = 4
		opts.InterprocDepth = depth
		t.Run(fmt.Sprintf("depth%d", depth), func(t *testing.T) {
			tracer := obs.New()
			ctx := obs.WithTracer(context.Background(), tracer)
			proj := NewProject()
			proj.AddSources(srcs)
			res, err := proj.AnalyzeParallel(ctx, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Pairings) != files {
				t.Fatalf("pairings = %d, want %d", len(res.Pairings), files)
			}
			checkTraceShape(t, tracer, res, files, files)

			// A replaced file's front end runs inside the next run too.
			tracer = obs.New()
			ctx = obs.WithTracer(context.Background(), tracer)
			proj.ReplaceSource(srcs[0].Name, srcs[0].Src+"\nint traced_edit;\n")
			if res, err = proj.AnalyzeParallel(ctx, opts); err != nil {
				t.Fatal(err)
			}
			checkTraceShape(t, tracer, res, files, 1)
		})
	}
}

// checkTraceShape asserts the span forest of one traced run over a project
// of files files, of which parsed ran the front end.
func checkTraceShape(t *testing.T, tracer *obs.Tracer, res *Result, files, parsed int) {
	t.Helper()
	byName := map[string][]*obs.Span{}
	for _, sp := range tracer.Spans() {
		byName[sp.Name()] = append(byName[sp.Name()], sp)
		if _, ended := sp.Elapsed(); !ended {
			t.Errorf("span %q left unfinished", sp.Name())
		}
	}
	for _, stage := range []string{"analyze", "preprocess", "parse", "cfg", "extract", "pair", "check"} {
		if len(byName[stage]) == 0 {
			t.Errorf("stage %q recorded no spans", stage)
		}
	}
	if got := len(byName["analyze"]); got != 1 {
		t.Fatalf("analyze spans = %d, want 1", got)
	}
	if got, want := len(byName["extract.file"]), res.Incremental.FilesRecomputed; got != want {
		t.Errorf("extract.file spans = %d, want %d (one per extracted file)", got, want)
	}
	for _, sp := range byName["extract.file"] {
		if sp.Parent() == nil || sp.Parent().Name() != "extract" {
			t.Errorf("extract.file span parented under %v, want extract", sp.Parent())
		}
	}
	if got := len(byName["parse"]); got != parsed {
		t.Errorf("parse spans = %d, want %d (one per parsed file)", got, parsed)
	}
	for _, sp := range byName["parse"] {
		kids := sp.Children()
		if len(kids) != 1 || kids[0].Name() != "preprocess" {
			t.Errorf("parse span children = %v, want one preprocess", kids)
		}
	}
	for _, name := range []string{"parse", "preprocess"} {
		for _, sp := range byName[name] {
			under := false
			for a := sp.Parent(); a != nil; a = a.Parent() {
				under = under || a.Name() == "analyze"
			}
			if !under {
				t.Errorf("%s span has no analyze ancestor", name)
			}
		}
	}

	// The analyze root's counters must agree with the result it produced.
	for _, c := range byName["analyze"][0].Counters() {
		if c.Name == "files" && c.Value != int64(files) {
			t.Errorf("analyze files counter = %d, want %d", c.Value, files)
		}
	}
	var extractSites int64
	for _, c := range byName["extract"][0].Counters() {
		if c.Name == "sites" {
			extractSites = c.Value
		}
	}
	if extractSites != int64(len(res.Sites)) {
		t.Errorf("extract sites counter = %d, result has %d", extractSites, len(res.Sites))
	}
}

// TestAnalyzeWithoutTracerUnchanged guards the no-op contract at the
// pipeline level: a bare context and a traced context must produce
// identical results.
func TestAnalyzeWithoutTracerUnchanged(t *testing.T) {
	plain := newParallelTestProject(t)
	resPlain, err := plain.AnalyzeParallel(context.Background(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	ctx := obs.WithTracer(context.Background(), obs.New())
	traced := NewProject()
	traced.AddSources([]SourceFile{{Name: "p.c", Src: parallelTestSrc}})
	resTraced, err := traced.AnalyzeParallel(ctx, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	viewEqual(t, resPlain, resTraced)
}
