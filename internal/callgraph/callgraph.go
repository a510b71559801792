// Package callgraph builds a whole-corpus, cross-file call graph over the
// parsed translation units of a project. It is the substrate for
// interprocedural analyses (internal/semprop's barrier-semantics inference,
// cross-file exploration in internal/access): the paper bounds extraction at
// function boundaries plus one level of same-file callees, and this package
// is what lets later passes cross file boundaries soundly.
//
// The graph is built in two steps. Summarize reduces one file's AST to an
// AST-free Summary of everything the graph and the inference read (see
// summary.go); Link joins the summaries of a project. Nothing downstream of
// Summarize touches an AST, so a linked graph over equal summaries is equal,
// and a caller may keep one across runs while no summary changes.
//
// Resolution covers two call forms:
//
//   - Direct calls f(...): resolved to the definition of f, honoring C
//     linkage — a static definition is only visible from its own file and
//     shadows an external definition of the same name there; distinct files
//     may each have their own static f.
//   - Indirect calls through function pointers (p->op(...), fp(...)):
//     resolved best-effort from assignments and initializers that store a
//     function's address into a variable or struct field. A pointer call
//     with no recorded candidate stays unresolved — analyses must degrade to
//     intraprocedural behavior there, never error.
//
// The graph is deterministic: nodes appear in (file order, declaration
// order) and edges in call-site order, so downstream fixpoints and reports
// are reproducible run to run.
package callgraph

import (
	"sort"

	"ofence/internal/cast"
)

// File is one named translation unit to include in the graph.
type File struct {
	Name string
	AST  *cast.File
}

// EdgeKind classifies how a call site was resolved.
type EdgeKind int

const (
	// Direct is a call through the function's name.
	Direct EdgeKind = iota
	// Pointer is a call through a function pointer, resolved from
	// assignment tracking.
	Pointer
)

// String renders the kind.
func (k EdgeKind) String() string {
	if k == Pointer {
		return "pointer"
	}
	return "direct"
}

// Edge is one resolved call site. A single call expression yields one edge
// per candidate callee (pointer calls may have several).
type Edge struct {
	Caller *Node
	Callee *Node
	// Site is the call's ordinal in Caller.Func.Calls.
	Site int
	Kind EdgeKind
}

// Node is one function definition (a FuncDecl with a body).
type Node struct {
	// File is the defining translation unit.
	File string
	// Func is the definition's summary.
	Func *Func
	// Ord is the definition's position among its file's definitions:
	// Summary.Funcs, and cast.File.Functions of the file's AST.
	Ord int
	// ID is the node's position in Graph.Nodes.
	ID int
	// fileIdx is the defining file's position in the summaries the graph
	// was linked from.
	fileIdx int
	// Calls are the outgoing resolved edges in call-site order.
	Calls []*Edge
	// CalledBy are the incoming edges.
	CalledBy []*Edge
	// UnresolvedCalls counts call sites in this function that could not be
	// resolved to any definition (external functions, unknown pointers).
	UnresolvedCalls int
}

// FileIndex returns the defining file's position in the summaries the
// graph was linked from.
func (n *Node) FileIndex() int { return n.fileIdx }

// Name returns the function name.
func (n *Node) Name() string { return n.Func.Name }

// Graph is the whole-corpus call graph.
type Graph struct {
	// Nodes in deterministic (file, declaration) order.
	Nodes []*Node
	// files names the linked files in order.
	files []string
	// byName maps a function name to every definition carrying it (multiple
	// entries when distinct files define same-named statics).
	byName map[string][]*Node
	// local maps a file to its definitions by name; the last definition of
	// a name in a file wins.
	local map[string]map[string]*Node
	// ptrTargets maps a slot name (variable or struct-field name) to the
	// functions whose address is stored into such a slot somewhere in the
	// corpus.
	ptrTargets map[string][]*Node
	// initTargets are functions referenced from initializer lists where the
	// destination slot could not be named (positional struct initializers);
	// they are fallback candidates for unmatched field-pointer calls.
	initTargets []*Node
}

// Resolve returns the definition a bare identifier refers to from file,
// honoring static visibility: the lookup cfg-level cross-file inlining
// uses. It returns nil for names with no visible definition, so callers
// degrade to the paper's one-level same-file behavior.
func (g *Graph) Resolve(file, name string) *Node {
	if n := g.local[file][name]; n != nil {
		return n // same-file definition (static or not) wins
	}
	for _, n := range g.byName[name] {
		if !n.Func.Static {
			return n // external linkage: visible everywhere
		}
	}
	return nil
}

func (g *Graph) addPtrTarget(slot string, n *Node) {
	for _, have := range g.ptrTargets[slot] {
		if have == n {
			return
		}
	}
	g.ptrTargets[slot] = append(g.ptrTargets[slot], n)
}

// edgesFor resolves one call site to its edges without mutating the graph.
// It only reads the node and pointer-target tables, which are frozen by the
// time edges are resolved — safe to call concurrently from Link's workers.
func (g *Graph) edgesFor(caller *Node, site int) (edges []*Edge, resolved bool) {
	mk := func(callee *Node, kind EdgeKind) *Edge {
		return &Edge{Caller: caller, Callee: callee, Site: site, Kind: kind}
	}
	call := &caller.Func.Calls[site]
	if call.Name != "" {
		if callee := g.Resolve(caller.File, call.Name); callee != nil {
			return []*Edge{mk(callee, Direct)}, true
		}
		// A bare identifier that is not a definition may still be a
		// function-pointer variable: fp(...).
		if cands := g.ptrTargets[call.Name]; len(cands) > 0 {
			for _, callee := range cands {
				edges = append(edges, mk(callee, Pointer))
			}
			return edges, true
		}
		return nil, false
	}
	// Indirect call: p->op(...), (*fp)(...), ops[i].fn(...).
	cands := g.ptrTargets[call.Slot]
	if len(cands) == 0 && call.Slot != "" && call.Field {
		// Field calls with no named match fall back to functions seen in
		// positional initializer lists.
		cands = g.initTargets
	}
	if len(cands) == 0 {
		return nil, false
	}
	for _, callee := range cands {
		edges = append(edges, mk(callee, Pointer))
	}
	return edges, true
}

// Lookup returns every definition named name, in build order.
func (g *Graph) Lookup(name string) []*Node { return g.byName[name] }

// Stats summarizes the graph for reports and metrics.
type Stats struct {
	Functions  int
	Edges      int
	PtrEdges   int
	Unresolved int
}

// Stats computes the summary.
func (g *Graph) Stats() Stats {
	var st Stats
	st.Functions = len(g.Nodes)
	for _, n := range g.Nodes {
		st.Edges += len(n.Calls)
		st.Unresolved += n.UnresolvedCalls
		for _, e := range n.Calls {
			if e.Kind == Pointer {
				st.PtrEdges++
			}
		}
	}
	return st
}

// SCCs returns the strongly connected components of the graph in Tarjan
// order (reverse topological: callees before callers), each component's
// nodes in discovery order. Recursive functions form components of size >= 1
// with a self or mutual cycle.
func (g *Graph) SCCs() [][]*Node {
	n := len(g.Nodes)
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []*Node
	var comps [][]*Node
	next := 0

	var strongconnect func(v *Node)
	strongconnect = func(v *Node) {
		index[v.ID] = next
		low[v.ID] = next
		next++
		stack = append(stack, v)
		onStack[v.ID] = true
		for _, e := range v.Calls {
			w := e.Callee
			if index[w.ID] < 0 {
				strongconnect(w)
				if low[w.ID] < low[v.ID] {
					low[v.ID] = low[w.ID]
				}
			} else if onStack[w.ID] && index[w.ID] < low[v.ID] {
				low[v.ID] = index[w.ID]
			}
		}
		if low[v.ID] == index[v.ID] {
			var comp []*Node
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w.ID] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			sort.Slice(comp, func(i, j int) bool { return index[comp[i].ID] < index[comp[j].ID] })
			comps = append(comps, comp)
		}
	}
	for _, v := range g.Nodes {
		if index[v.ID] < 0 {
			strongconnect(v)
		}
	}
	return comps
}
