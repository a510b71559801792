package callgraph

import (
	"fmt"
	"testing"

	"ofence/internal/sitegen"
)

// graphsEquivalent asserts g2 is exactly g1: same node order, same edges in
// the same order over the same call sites, same pointer-target tables.
func graphsEquivalent(t *testing.T, g1, g2 *Graph) {
	t.Helper()
	if len(g1.Nodes) != len(g2.Nodes) {
		t.Fatalf("node counts differ: %d vs %d", len(g1.Nodes), len(g2.Nodes))
	}
	for i := range g1.Nodes {
		a, b := g1.Nodes[i], g2.Nodes[i]
		if a.File != b.File || a.Ord != b.Ord || a.ID != b.ID || a.Func.Fingerprint != b.Func.Fingerprint {
			t.Fatalf("node %d differs: %s/%s vs %s/%s", i, a.File, a.Name(), b.File, b.Name())
		}
		if a.UnresolvedCalls != b.UnresolvedCalls {
			t.Errorf("node %s: unresolved %d vs %d", a.Name(), a.UnresolvedCalls, b.UnresolvedCalls)
		}
		if len(a.Calls) != len(b.Calls) {
			t.Fatalf("node %s: %d vs %d calls", a.Name(), len(a.Calls), len(b.Calls))
		}
		for j := range a.Calls {
			ea, eb := a.Calls[j], b.Calls[j]
			if ea.Callee.ID != eb.Callee.ID || ea.Site != eb.Site || ea.Kind != eb.Kind {
				t.Fatalf("node %s call %d differs", a.Name(), j)
			}
		}
		if len(a.CalledBy) != len(b.CalledBy) {
			t.Fatalf("node %s: %d vs %d callers", a.Name(), len(a.CalledBy), len(b.CalledBy))
		}
		for j := range a.CalledBy {
			ea, eb := a.CalledBy[j], b.CalledBy[j]
			if ea.Caller.ID != eb.Caller.ID || ea.Site != eb.Site || ea.Kind != eb.Kind {
				t.Fatalf("node %s caller %d differs", a.Name(), j)
			}
		}
	}
	if len(g1.ptrTargets) != len(g2.ptrTargets) {
		t.Fatalf("ptrTargets sizes differ: %d vs %d", len(g1.ptrTargets), len(g2.ptrTargets))
	}
	for slot, la := range g1.ptrTargets {
		lb := g2.ptrTargets[slot]
		if len(la) != len(lb) {
			t.Fatalf("ptrTargets[%s]: %d vs %d", slot, len(la), len(lb))
		}
		for i := range la {
			if la[i].ID != lb[i].ID {
				t.Fatalf("ptrTargets[%s][%d] differs", slot, i)
			}
		}
	}
	if len(g1.initTargets) != len(g2.initTargets) {
		t.Fatalf("initTargets sizes differ: %d vs %d", len(g1.initTargets), len(g2.initTargets))
	}
	for i := range g1.initTargets {
		if g1.initTargets[i].ID != g2.initTargets[i].ID {
			t.Fatalf("initTargets[%d] differs", i)
		}
	}
}

// TestBuildParallelEquivalence covers the resolution corner cases: statics
// shadowing externals, function-pointer slots, initializer-list fallbacks,
// unresolved calls — at several worker counts against the one-worker graph.
func TestBuildParallelEquivalence(t *testing.T) {
	files := []File{
		parse(t, "a.c", `
static void helper(void) { }
void caller(void) { helper(); ext(); }
void shared(void) { caller(); }
`),
		parse(t, "b.c", `
static void helper(void) { shared(); }
void user(void) { helper(); unknown_fn(); }
void (*fp)(void) = helper;
void indirect(void) { fp(); }
`),
		parse(t, "c.c", `
struct ops { void (*run)(void); void (*stop)(void); };
void impl_run(void) { }
void impl_stop(void) { }
struct ops table = { impl_run, impl_stop };
void dispatch(struct ops *o) { o->run(); o->other(); }
void cond_assign(int x) { void (*h)(void) = x ? impl_run : impl_stop; h(); }
`),
		{Name: "broken.c", AST: nil},
	}
	one := BuildParallel(files, 1)
	for _, workers := range []int{1, 3, 8} {
		par := BuildParallel(files, workers)
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			graphsEquivalent(t, one, par)
		})
	}
}

// TestBuildParallelEquivalenceTree checks worker-count invariance over a
// generated source tree — cross-file chains, helpers, unresolved noise
// calls — which is the corpus shape the sharded builder exists for.
func TestBuildParallelEquivalenceTree(t *testing.T) {
	tr := sitegen.GenerateTree(sitegen.DefaultTreeSpec(48, 3))
	var files []File
	for _, f := range tr.Files {
		files = append(files, parse(t, f.Name, f.Src))
	}
	one := BuildParallel(files, 1)
	par := BuildParallel(files, 8)
	graphsEquivalent(t, one, par)
}
