// link.go builds the graph from file summaries in three passes fanned out
// with par.For and merged deterministically. The graph is identical at every
// worker count: same nodes in the same order, same edges in the same order,
// same pointer-target tables (see TestBuildParallelEquivalence).
//
// The fan-out respects what each pass may read:
//
//   - Pass 1 (nodes) reads one summary at a time and is merged in file
//     order, so build order — and everything downstream keyed on it — is
//     schedule-independent.
//   - Pass 2 (pointer targets) resolves names against the *complete* pass-1
//     tables; those are frozen before workers start, so workers resolve
//     concurrently and only the ordered merge mutates the tables.
//   - Pass 3 (edges) writes each caller's Calls locally (one worker owns one
//     node) and leaves the cross-node CalledBy lists to a sequential pass in
//     node order.
package callgraph

import (
	"runtime"

	"ofence/internal/par"
)

// ptrRec is one resolved pointer-target fact, in discovery order.
type ptrRec struct {
	slot string
	n    *Node
	init bool
}

// BuildParallel summarizes files and links the summaries, fanning the
// per-file work out over up to workers goroutines (GOMAXPROCS when
// workers <= 0). Files with nil ASTs (parse failures) contribute nothing;
// building never fails.
func BuildParallel(files []File, workers int) *Graph {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sums := make([]*Summary, len(files))
	par.For(len(files), workers, func(i int) {
		sums[i] = Summarize(files[i].Name, files[i].AST)
	})
	return Link(sums, workers)
}

// Link joins file summaries, in the order given, into the graph. It reads
// nothing but the summaries, so equal summaries link to equal graphs.
func Link(sums []*Summary, workers int) *Graph {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	g := &Graph{
		byName:     map[string][]*Node{},
		local:      make(map[string]map[string]*Node, len(sums)),
		ptrTargets: map[string][]*Node{},
	}

	// Pass 1: nodes in file order.
	for fi, s := range sums {
		g.files = append(g.files, s.File)
		local := make(map[string]*Node, len(s.Funcs))
		for i := range s.Funcs {
			n := &Node{File: s.File, Func: &s.Funcs[i], Ord: i, ID: len(g.Nodes), fileIdx: fi}
			g.Nodes = append(g.Nodes, n)
			g.byName[n.Func.Name] = append(g.byName[n.Func.Name], n)
			local[n.Func.Name] = n
		}
		g.local[s.File] = local
	}

	// Pass 2: concurrent resolve (the tables are frozen now), ordered merge
	// into the shared tables.
	recs := make([][]ptrRec, len(sums))
	par.For(len(sums), workers, func(i int) {
		s := sums[i]
		for _, st := range s.Stores {
			if n := g.Resolve(s.File, st.Ident); n != nil {
				recs[i] = append(recs[i], ptrRec{slot: st.Slot, n: n, init: st.Init})
			}
		}
	})
	for _, rs := range recs {
		for _, r := range rs {
			g.addPtrTarget(r.slot, r.n)
			if r.init {
				g.initTargets = append(g.initTargets, r.n)
			}
		}
	}

	// Pass 3: per-node edge resolution in parallel; every table read here is
	// frozen. The caller-side lists and unresolved counts are node-local.
	par.For(len(g.Nodes), workers, func(i int) {
		n := g.Nodes[i]
		for site := range n.Func.Calls {
			edges, resolved := g.edgesFor(n, site)
			if !resolved {
				n.UnresolvedCalls++
				continue
			}
			n.Calls = append(n.Calls, edges...)
		}
	})
	// CalledBy in build order: nodes in build order, each node's call sites
	// in source order.
	for _, n := range g.Nodes {
		for _, e := range n.Calls {
			e.Callee.CalledBy = append(e.Callee.CalledBy, e)
		}
	}
	return g
}
