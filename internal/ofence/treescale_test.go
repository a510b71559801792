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
// worker count. The subtests keep the "release=false" suffix of the
// retired AST-releasing mode, so their names stay stable.
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
		t.Run(fmt.Sprintf("workers=%d release=false", workers), func(t *testing.T) {
			ropts := opts
			ropts.Workers = workers
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
