// Package callgraph builds a whole-corpus, cross-file call graph over the
// parsed translation units of a project. It is the substrate for
// interprocedural analyses (internal/semprop's barrier-semantics inference,
// cross-file exploration in internal/access): the paper bounds extraction at
// function boundaries plus one level of same-file callees, and this package
// is what lets later passes cross file boundaries soundly.
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
	Call   *cast.CallExpr
	Kind   EdgeKind
}

// Node is one function definition (a FuncDecl with a body).
type Node struct {
	// File is the defining translation unit.
	File string
	// Fn is the definition.
	Fn *cast.FuncDecl
	// Static records file-local linkage.
	Static bool
	// Calls are the outgoing resolved edges in call-site order.
	Calls []*Edge
	// CalledBy are the incoming edges.
	CalledBy []*Edge
	// UnresolvedCalls counts call sites in this function that could not be
	// resolved to any definition (external functions, unknown pointers).
	UnresolvedCalls int
	// allCalls caches cast.Calls(Fn.Body) from the edge pass, so FileDeps
	// does not re-walk every body.
	allCalls []*cast.CallExpr
}

// Name returns the function name.
func (n *Node) Name() string { return n.Fn.Name }

// Graph is the whole-corpus call graph.
type Graph struct {
	// Nodes in deterministic (file, declaration) order.
	Nodes []*Node
	// byName maps a function name to every definition carrying it (multiple
	// entries when distinct files define same-named statics).
	byName map[string][]*Node
	// byFile maps "file\x00name" to the definition for static lookup.
	byFile map[string]*Node
	// ptrTargets maps a slot name (variable or struct-field name) to the
	// functions whose address is stored into such a slot somewhere in the
	// corpus.
	ptrTargets map[string][]*Node
	// initTargets are functions referenced from initializer lists where the
	// destination slot could not be named (positional struct initializers);
	// they are fallback candidates for unmatched field-pointer calls.
	initTargets []*Node
}

func fileKey(file, name string) string { return file + "\x00" + name }

// funcNamed returns the definition a bare identifier refers to from file,
// honoring static visibility.
func (g *Graph) funcNamed(file, name string) *Node {
	if n, ok := g.byFile[fileKey(file, name)]; ok {
		return n // same-file definition (static or not) wins
	}
	for _, n := range g.byName[name] {
		if !n.Static {
			return n // external linkage: visible everywhere
		}
	}
	return nil
}

func unwrapIdent(e cast.Expr) (string, bool) {
	for {
		switch x := e.(type) {
		case *cast.Ident:
			return x.Name, true
		case *cast.UnaryExpr:
			e = x.X
		case *cast.CastExpr:
			e = x.X
		default:
			return "", false
		}
	}
}

func (g *Graph) addPtrTarget(slot string, n *Node) {
	for _, have := range g.ptrTargets[slot] {
		if have == n {
			return
		}
	}
	g.ptrTargets[slot] = append(g.ptrTargets[slot], n)
}

// slotName names the destination of a pointer store: a plain variable or
// the final field of a field chain.
func slotName(e cast.Expr) string {
	switch x := e.(type) {
	case *cast.Ident:
		return x.Name
	case *cast.FieldExpr:
		return x.Name
	case *cast.UnaryExpr:
		return slotName(x.X) // *fp = ...
	case *cast.IndexExpr:
		return slotName(x.X) // ops[i] = ...
	}
	return ""
}

// edgesFor resolves one call site to its edges without mutating the graph.
// It only reads the phase-1/phase-2 maps, which are frozen by the time edges
// are resolved — safe to call concurrently from BuildParallel's workers.
func (g *Graph) edgesFor(caller *Node, call *cast.CallExpr) (edges []*Edge, resolved bool) {
	mk := func(callee *Node, kind EdgeKind) *Edge {
		return &Edge{Caller: caller, Callee: callee, Call: call, Kind: kind}
	}
	if name := call.FunName(); name != "" {
		if callee := g.funcNamed(caller.File, name); callee != nil {
			return []*Edge{mk(callee, Direct)}, true
		}
		// A bare identifier that is not a definition may still be a
		// function-pointer variable: fp(...).
		if cands := g.ptrTargets[name]; len(cands) > 0 {
			for _, callee := range cands {
				edges = append(edges, mk(callee, Pointer))
			}
			return edges, true
		}
		return nil, false
	}
	// Indirect call: p->op(...), (*fp)(...), ops[i].fn(...).
	slot := slotName(call.Fun)
	cands := g.ptrTargets[slot]
	if len(cands) == 0 && slot != "" {
		// Field calls with no named match fall back to functions seen in
		// positional initializer lists.
		if _, isField := unwrapField(call.Fun); isField {
			cands = g.initTargets
		}
	}
	if len(cands) == 0 {
		return nil, false
	}
	for _, callee := range cands {
		edges = append(edges, mk(callee, Pointer))
	}
	return edges, true
}

func unwrapField(e cast.Expr) (*cast.FieldExpr, bool) {
	for {
		switch x := e.(type) {
		case *cast.FieldExpr:
			return x, true
		case *cast.UnaryExpr:
			e = x.X
		case *cast.CastExpr:
			e = x.X
		case *cast.IndexExpr:
			e = x.X
		default:
			return nil, false
		}
	}
}

// Lookup returns every definition named name, in build order.
func (g *Graph) Lookup(name string) []*Node { return g.byName[name] }

// ResolverFor returns a name resolver with fromFile's visibility: the
// function cfg-level cross-file inlining uses. It returns nil for names with
// no visible definition, so callers degrade to the paper's one-level
// same-file behavior.
func (g *Graph) ResolverFor(fromFile string) func(name string) *cast.FuncDecl {
	return func(name string) *cast.FuncDecl {
		if n := g.funcNamed(fromFile, name); n != nil {
			return n.Fn
		}
		return nil
	}
}

// Callees returns the distinct nodes n calls, in first-call order.
func (n *Node) Callees() []*Node {
	var out []*Node
	seen := map[*Node]bool{}
	for _, e := range n.Calls {
		if !seen[e.Callee] {
			seen[e.Callee] = true
			out = append(out, e.Callee)
		}
	}
	return out
}

// FileDeps returns the conservative file-level dependency map the
// incremental pipeline keys interprocedural extraction on: file A depends on
// file B when A's extraction could observe code from B — through a resolved
// call edge (direct or function-pointer), or because a name called anywhere
// in A has a definition in B (the superset any per-file resolver may splice,
// regardless of which visibility context resolves the nested call). The
// lists are sorted, duplicate-free and never include the file itself.
//
// The map is deliberately an over-approximation: a file outside another
// file's transitive dependency closure can never influence its extraction,
// so artifacts keyed over the closure's contents are safe to reuse.
func (g *Graph) FileDeps() map[string][]string {
	deps := map[string]map[string]bool{}
	add := func(from, to string) {
		if from == to {
			return
		}
		m, ok := deps[from]
		if !ok {
			m = map[string]bool{}
			deps[from] = m
		}
		m[to] = true
	}
	for _, n := range g.Nodes {
		if _, ok := deps[n.File]; !ok {
			deps[n.File] = map[string]bool{}
		}
		for _, e := range n.Calls {
			add(n.File, e.Callee.File)
		}
		for _, call := range n.allCalls {
			name := call.FunName()
			if name == "" {
				continue
			}
			for _, def := range g.byName[name] {
				add(n.File, def.File)
			}
		}
	}
	out := make(map[string][]string, len(deps))
	for file, set := range deps {
		list := make([]string, 0, len(set))
		for to := range set {
			list = append(list, to)
		}
		sort.Strings(list)
		out[file] = list
	}
	return out
}

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
// nodes in build order. Recursive functions form components of size >= 1
// with a self or mutual cycle.
func (g *Graph) SCCs() [][]*Node {
	index := map[*Node]int{}
	low := map[*Node]int{}
	onStack := map[*Node]bool{}
	var stack []*Node
	var comps [][]*Node
	next := 0

	var strongconnect func(v *Node)
	strongconnect = func(v *Node) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, e := range v.Calls {
			w := e.Callee
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []*Node
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			sort.Slice(comp, func(i, j int) bool { return index[comp[i]] < index[comp[j]] })
			comps = append(comps, comp)
		}
	}
	for _, n := range g.Nodes {
		if _, seen := index[n]; !seen {
			strongconnect(n)
		}
	}
	return comps
}
