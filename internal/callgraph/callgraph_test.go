package callgraph

import (
	"testing"

	"ofence/internal/cparser"
	"ofence/internal/cpp"
)

func parse(t *testing.T, name, src string) File {
	t.Helper()
	ast, errs := cparser.ParseSource(name, src, cpp.Options{})
	if ast == nil {
		t.Fatalf("%s: no AST (%v)", name, errs)
	}
	return File{Name: name, AST: ast}
}

// build constructs the graph at Workers 1, 3 and 8, checks the three are
// identical, and returns one.
func build(t *testing.T, files []File) *Graph {
	t.Helper()
	g := BuildParallel(files, 1)
	for _, workers := range []int{3, 8} {
		graphsEquivalent(t, g, BuildParallel(files, workers))
	}
	return g
}

func node(t *testing.T, g *Graph, file, name string) *Node {
	t.Helper()
	for _, n := range g.Nodes {
		if n.File == file && n.Name() == name {
			return n
		}
	}
	t.Fatalf("no node %s in %s", name, file)
	return nil
}

func calls(n *Node, callee *Node) bool {
	for _, e := range n.Calls {
		if e.Callee == callee {
			return true
		}
	}
	return false
}

func TestDirectCallsAcrossFiles(t *testing.T) {
	g := build(t, []File{
		parse(t, "a.c", `void helper(void) { } void caller(void) { helper(); }`),
		parse(t, "b.c", `void other(void) { helper(); }`),
	})
	helper := node(t, g, "a.c", "helper")
	if !calls(node(t, g, "a.c", "caller"), helper) {
		t.Error("same-file call unresolved")
	}
	if !calls(node(t, g, "b.c", "other"), helper) {
		t.Error("cross-file call to external-linkage function unresolved")
	}
	if len(helper.CalledBy) != 2 {
		t.Errorf("CalledBy = %d, want 2", len(helper.CalledBy))
	}
}

func TestRecursionAndMutualRecursion(t *testing.T) {
	g := build(t, []File{parse(t, "r.c", `
void rec(int n) { if (n) rec(n - 1); }
void ping(int n);
void pong(int n) { if (n) ping(n - 1); }
void ping(int n) { if (n) pong(n - 1); }
`)})
	rec := node(t, g, "r.c", "rec")
	if !calls(rec, rec) {
		t.Error("self-recursion edge missing")
	}
	ping := node(t, g, "r.c", "ping")
	pong := node(t, g, "r.c", "pong")
	if !calls(ping, pong) || !calls(pong, ping) {
		t.Error("mutual-recursion edges missing")
	}
	// SCC decomposition: rec alone, {ping, pong} together.
	var recComp, mutComp []*Node
	for _, comp := range g.SCCs() {
		for _, n := range comp {
			if n == rec {
				recComp = comp
			}
			if n == ping {
				mutComp = comp
			}
		}
	}
	if len(recComp) != 1 {
		t.Errorf("rec SCC size = %d, want 1", len(recComp))
	}
	if len(mutComp) != 2 {
		t.Errorf("ping/pong SCC size = %d, want 2", len(mutComp))
	}
}

// Two files each define a static helper with the same name; calls must bind
// to the same-file definition, never leak across files.
func TestSameNameStaticsStayFileLocal(t *testing.T) {
	g := build(t, []File{
		parse(t, "x.c", `static void helper(void) { } void fx(void) { helper(); }`),
		parse(t, "y.c", `static void helper(void) { } void fy(void) { helper(); }`),
	})
	hx := node(t, g, "x.c", "helper")
	hy := node(t, g, "y.c", "helper")
	if hx == hy {
		t.Fatal("statics collapsed into one node")
	}
	if !calls(node(t, g, "x.c", "fx"), hx) || calls(node(t, g, "x.c", "fx"), hy) {
		t.Error("fx must call x.c's helper only")
	}
	if !calls(node(t, g, "y.c", "fy"), hy) || calls(node(t, g, "y.c", "fy"), hx) {
		t.Error("fy must call y.c's helper only")
	}
	if len(g.Lookup("helper")) != 2 {
		t.Errorf("Lookup(helper) = %d defs, want 2", len(g.Lookup("helper")))
	}
}

// A static definition shadows an external one of the same name within its
// own file; other files bind to the external definition.
func TestStaticShadowsExternal(t *testing.T) {
	g := build(t, []File{
		parse(t, "ext.c", `void work(void) { }`),
		parse(t, "sh.c", `static void work(void) { } void fs(void) { work(); }`),
		parse(t, "user.c", `void fu(void) { work(); }`),
	})
	if !calls(node(t, g, "sh.c", "fs"), node(t, g, "sh.c", "work")) {
		t.Error("fs must bind to its file-local static")
	}
	if !calls(node(t, g, "user.c", "fu"), node(t, g, "ext.c", "work")) {
		t.Error("fu must bind to the external definition")
	}
}

func TestFunctionPointerResolution(t *testing.T) {
	g := build(t, []File{parse(t, "p.c", `
struct ops { void (*submit)(void); };
void impl_a(void) { }
void impl_b(void) { }
struct ops the_ops = { impl_a };
void setup(struct ops *o) { o->submit = impl_b; }
void drive(struct ops *o) { o->submit(); }
typedef void (*submit_fn)(void);
void var_call(void) { submit_fn fp; fp = impl_a; fp(); }
`)})
	drive := node(t, g, "p.c", "drive")
	ia := node(t, g, "p.c", "impl_a")
	ib := node(t, g, "p.c", "impl_b")
	if !calls(drive, ib) {
		t.Error("o->submit() must resolve to impl_b via the field assignment")
	}
	if !calls(node(t, g, "p.c", "var_call"), ia) {
		t.Error("fp() must resolve to impl_a via the local initializer")
	}
	if drive.UnresolvedCalls != 0 {
		t.Errorf("drive unresolved = %d, want 0", drive.UnresolvedCalls)
	}
}

// Pointer calls with no recorded assignment must count as unresolved —
// the degrade-to-intraprocedural contract, never an error.
func TestUnresolvedPointerDegrades(t *testing.T) {
	g := build(t, []File{parse(t, "u.c", `
struct mystery { void (*cb)(void); };
void run(struct mystery *m) { m->cb(); external_fn(); }
`)})
	run := node(t, g, "u.c", "run")
	if len(run.Calls) != 0 {
		t.Errorf("edges = %d, want 0", len(run.Calls))
	}
	if run.UnresolvedCalls != 2 {
		t.Errorf("unresolved = %d, want 2 (pointer call + external call)", run.UnresolvedCalls)
	}
	st := g.Stats()
	if st.Functions != 1 || st.Unresolved != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestResolverForVisibility(t *testing.T) {
	g := build(t, []File{
		parse(t, "x.c", `static void helper(void) { int x; }`),
		parse(t, "y.c", `void pub(void) { }`),
	})
	rx := func(name string) *Node { return g.Resolve("x.c", name) }
	ry := func(name string) *Node { return g.Resolve("y.c", name) }
	if rx("helper") == nil {
		t.Error("x.c must see its static helper")
	}
	if ry("helper") != nil {
		t.Error("y.c must not see x.c's static helper")
	}
	if rx("pub") == nil || ry("pub") == nil {
		t.Error("external pub must be visible everywhere")
	}
	if rx("nosuch") != nil {
		t.Error("unknown names must resolve to nil")
	}
}

func TestNilASTSkipped(t *testing.T) {
	g := build(t, []File{{Name: "broken.c", AST: nil}, parse(t, "ok.c", `void f(void) { }`)})
	if len(g.Nodes) != 1 {
		t.Errorf("nodes = %d, want 1", len(g.Nodes))
	}
}
