// parallel.go builds the graph in three passes sharded over a worker pool
// with a deterministic merge. The graph is identical at every worker count:
// same nodes in the same order, same edges in the same order, same
// pointer-target tables (see TestBuildParallelEquivalence).
//
// The sharding respects what each pass may read:
//
//   - Pass 1 (nodes) walks only one file's AST; per-file node lists are
//     built concurrently and merged in file order, so build order — and
//     everything downstream keyed on it — is schedule-independent.
//   - Pass 2 (pointer targets) resolves names against the *complete* pass-1
//     maps; those are frozen before workers start, so workers resolve
//     concurrently and only the ordered merge mutates the tables.
//   - Pass 3 (edges) writes each caller's Calls locally (one worker owns one
//     node) and leaves the cross-node CalledBy lists to a sequential pass in
//     node order.
package callgraph

import (
	"runtime"
	"sync"
	"sync/atomic"

	"ofence/internal/cast"
)

// ptrRec is one pointer-target fact found in a file, in discovery order.
type ptrRec struct {
	slot string
	n    *Node
	init bool
}

// BuildParallel constructs the graph over files, sharding the per-file work
// over up to workers goroutines (GOMAXPROCS when workers <= 0). Files with
// nil ASTs (parse failures) are skipped; the builder never fails.
func BuildParallel(files []File, workers int) *Graph {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	g := &Graph{
		byName:     map[string][]*Node{},
		byFile:     map[string]*Node{},
		ptrTargets: map[string][]*Node{},
	}

	// Pass 1: per-file node lists, merged in file order.
	perFile := make([][]*Node, len(files))
	forEach(len(files), workers, func(i int) {
		f := files[i]
		if f.AST == nil {
			return
		}
		var nodes []*Node
		for _, fn := range f.AST.Functions() {
			if fn.Body == nil {
				continue
			}
			nodes = append(nodes, &Node{File: f.Name, Fn: fn, Static: fn.Static})
		}
		perFile[i] = nodes
	})
	for i, nodes := range perFile {
		for _, n := range nodes {
			g.Nodes = append(g.Nodes, n)
			g.byName[n.Fn.Name] = append(g.byName[n.Fn.Name], n)
			g.byFile[fileKey(files[i].Name, n.Fn.Name)] = n
		}
	}

	// Pass 2: concurrent walk + resolve (the maps are frozen now), ordered
	// merge into the shared tables.
	recs := make([][]ptrRec, len(files))
	forEach(len(files), workers, func(i int) {
		f := files[i]
		if f.AST == nil {
			return
		}
		c := &ptrCollector{g: g, file: f.Name}
		for _, d := range f.AST.Decls {
			if vd, ok := d.(*cast.VarDecl); ok && vd.Init != nil {
				c.expr(vd.Name, vd.Init)
			}
		}
		for _, fn := range f.AST.Functions() {
			if fn.Body == nil {
				continue
			}
			cast.Walk(fn.Body, func(node cast.Node) bool {
				switch x := node.(type) {
				case *cast.AssignExpr:
					if slot := slotName(x.X); slot != "" {
						c.expr(slot, x.Y)
					}
				case *cast.DeclStmt:
					if x.Init != nil {
						c.expr(x.Name, x.Init)
					}
				}
				return true
			})
		}
		recs[i] = c.recs
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
	// The body walk is cached on the node for FileDeps.
	forEach(len(g.Nodes), workers, func(i int) {
		n := g.Nodes[i]
		n.allCalls = cast.Calls(n.Fn.Body)
		for _, call := range n.allCalls {
			edges, resolved := g.edgesFor(n, call)
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

// ptrCollector records every function an expression stores under a slot,
// as facts the ordered merge applies to the graph's tables. Initializer
// lists recurse: named slots keep the outer name (best-effort; designated
// initializers are not distinguished by the parser), and the functions are
// additionally remembered as fallback init targets.
type ptrCollector struct {
	g    *Graph
	file string
	recs []ptrRec
}

func (c *ptrCollector) expr(slot string, expr cast.Expr) {
	switch x := expr.(type) {
	case *cast.Ident:
		if n := c.g.funcNamed(c.file, x.Name); n != nil {
			c.recs = append(c.recs, ptrRec{slot: slot, n: n})
		}
	case *cast.UnaryExpr:
		c.expr(slot, x.X) // &fn
	case *cast.CastExpr:
		c.expr(slot, x.X)
	case *cast.CondExpr:
		c.expr(slot, x.Then)
		c.expr(slot, x.Else)
	case *cast.InitListExpr:
		for _, el := range x.Elems {
			if id, ok := unwrapIdent(el); ok {
				if n := c.g.funcNamed(c.file, id); n != nil {
					c.recs = append(c.recs, ptrRec{slot: slot, n: n, init: true})
				}
			}
		}
	}
}

// forEach fans f over [0, n) with at most workers goroutines. Iterations
// must be independent; completion is a barrier.
func forEach(n, workers int, f func(i int)) {
	if n == 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}
