package ofence_test

import (
	"fmt"
	"testing"

	"ofence/internal/ofence"
	"ofence/internal/sitegen"
)

// treeProject loads a generated kernel-shaped tree into a fresh project
// (see loadTree).
func treeProject(tr *sitegen.Tree) *ofence.Project {
	p := ofence.NewProject()
	loadTree(p, tr)
	return p
}

// TestTreescaleByteIdentity pins the parallel global phases on a small
// generated tree: the sharded call graph, SCC-scheduled semprop, sharded
// dedup and census must reproduce the golden depth-1 record at every
// worker count, with and without ReleaseASTs.
func TestTreescaleByteIdentity(t *testing.T) {
	goldens := loadGoldens(t)
	tr := goldenTree()
	opts := ofence.DefaultOptions()
	opts.InterprocDepth = 1

	oopts := opts
	oopts.Workers = 1
	ores := mustAnalyze(t, treeProject(tr), oopts)
	checkGolden(t, goldens, "tree160/depth1", ores)
	want := viewJSON(t, ores)
	if len(ores.Sites) == 0 || len(ores.Pairings) == 0 || len(ores.Findings) == 0 {
		t.Fatalf("run is degenerate: %d sites, %d pairings, %d findings",
			len(ores.Sites), len(ores.Pairings), len(ores.Findings))
	}
	if ores.CallGraph.Functions == 0 || len(ores.Inferred) == 0 {
		t.Fatalf("run has no interprocedural signal: %+v", ores.CallGraph)
	}

	for _, workers := range []int{1, 3, 8} {
		for _, release := range []bool{false, true} {
			t.Run(fmt.Sprintf("workers=%d release=%t", workers, release), func(t *testing.T) {
				ropts := opts
				ropts.Workers = workers
				ropts.ReleaseASTs = release
				res := mustAnalyze(t, treeProject(tr), ropts)
				if got := viewJSON(t, res); got != want {
					t.Errorf("output diverges from the one-worker run")
				}
				if res.Inferred == nil || res.CallGraph != ores.CallGraph {
					t.Errorf("call-graph stats diverge: %+v vs %+v", res.CallGraph, ores.CallGraph)
				}
			})
		}
	}
}

// TestTreescaleReleaseASTsWarmReuse asserts the depth-0 pipeline serves a
// released project entirely from cached sites — no re-parse — and still
// serializes identically.
func TestTreescaleReleaseASTsWarmReuse(t *testing.T) {
	tr := sitegen.GenerateTree(sitegen.DefaultTreeSpec(48, 11))
	opts := ofence.DefaultOptions()
	opts.ReleaseASTs = true

	p := treeProject(tr)
	cold := mustAnalyze(t, p, opts)
	coldJSON := viewJSON(t, cold)
	for _, fu := range p.Files() {
		if fu.AST != nil {
			t.Fatalf("%s: AST retained after ReleaseASTs analysis", fu.Name)
		}
	}
	warm := mustAnalyze(t, p, opts)
	if got := viewJSON(t, warm); got != coldJSON {
		t.Error("warm ReleaseASTs run diverges from cold")
	}
	if warm.Incremental.FilesRecomputed != 0 {
		t.Errorf("warm run recomputed %d files; want 0 (reuse must not need ASTs)",
			warm.Incremental.FilesRecomputed)
	}
	// Flipping an option that re-keys extraction forces a re-parse of the
	// released units — and must still produce a coherent result.
	opts2 := opts
	opts2.Access.WriteWindow += 2
	re := mustAnalyze(t, p, opts2)
	if re.Incremental.FilesRecomputed != len(tr.Files) {
		t.Errorf("re-keyed run recomputed %d files; want %d",
			re.Incremental.FilesRecomputed, len(tr.Files))
	}
	if len(re.Sites) == 0 {
		t.Error("re-keyed run lost every site")
	}
}
