package semprop_test

import (
	"fmt"
	"strings"
	"testing"

	"ofence/internal/callgraph"
	"ofence/internal/cparser"
	"ofence/internal/cpp"
	"ofence/internal/kernelhdr"
	"ofence/internal/semprop"
	"ofence/internal/sitegen"
)

// diffInfer runs the SCC schedule over the same graph at Workers 1, 3 and 8
// and asserts identical per-node kinds and schedule statistics. Components
// of one level evaluate concurrently, so worker-count invariance is what
// pins that they never observe each other's kinds.
func diffInfer(t *testing.T, g *callgraph.Graph, opts semprop.Options) {
	t.Helper()
	opts.Workers = 1
	one := semprop.Infer(g, opts)
	for _, workers := range []int{1, 3, 8} {
		opts.Workers = workers
		scc := semprop.Infer(g, opts)
		if !scc.Converged {
			t.Fatalf("workers=%d: SCC schedule did not converge", workers)
		}
		if scc.Components == 0 || scc.Levels == 0 {
			t.Errorf("workers=%d: SCC schedule reported no components/levels", workers)
		}
		if scc.Rounds != one.Rounds || scc.Components != one.Components || scc.Levels != one.Levels {
			t.Errorf("workers=%d: rounds/components/levels %d/%d/%d, want %d/%d/%d", workers,
				scc.Rounds, scc.Components, scc.Levels, one.Rounds, one.Components, one.Levels)
		}
		for _, n := range g.Nodes {
			if one.Kind(n) != scc.Kind(n) {
				t.Errorf("workers=%d: %s/%s: %v, one worker gives %v",
					workers, n.File, n.Name(), scc.Kind(n), one.Kind(n))
			}
		}
	}
}

// TestSCCScheduleEquivalence covers recursion shapes the condensation must
// get right: self-recursion, mutual recursion across files, a recursive
// pair wrapping a barrier, and diamond call patterns.
func TestSCCScheduleEquivalence(t *testing.T) {
	g := buildGraph(t, map[string]string{
		"a.c": `
void leaf(void) { smp_wmb(); }
void wrap1(void) { leaf(); }
void wrap2(void) { wrap1(); }
void rec(int n) { if (n) { smp_mb(); rec(n - 1); } }
void norec(int n) { if (n) rec(n - 1); }
`,
		"b.c": `
void ping(int n);
void pong(int n) { smp_rmb(); if (n) ping(n - 1); }
void ping(int n) { smp_rmb(); if (n) pong(n - 1); }
void diamond(int c) { if (c) wrap2(); else leaf(); }
void partial(int c) { if (c) leaf(); }
`,
	})
	diffInfer(t, g, semprop.Options{})
}

// TestSCCScheduleEquivalenceTree checks worker-count invariance over
// generated trees: deep caller-before-callee wrapper chains bottoming into
// a cross-subsystem core chain — the adversarial shape for round-robin
// iteration and the reason the SCC schedule exists.
func TestSCCScheduleEquivalenceTree(t *testing.T) {
	for _, seed := range []int64{1, 99} {
		tr := sitegen.GenerateTree(sitegen.DefaultTreeSpec(64, seed))
		var cgf []callgraph.File
		for _, f := range tr.Files {
			ast, _ := cparser.ParseSource(f.Name, f.Src, cpp.Options{Include: kernelhdr.Headers()})
			cgf = append(cgf, callgraph.File{Name: f.Name, AST: ast})
		}
		g := callgraph.BuildParallel(cgf, 0)
		diffInfer(t, g, semprop.Options{})

		// The deep chains must actually be inferred end to end: every
		// subsystem chain head is a wrapper whose only path executes the
		// core chain's bottom barrier.
		inf := semprop.Infer(g, semprop.Options{})
		heads := 0
		for _, n := range g.Nodes {
			if strings.HasSuffix(n.Name(), "_sync_0000") {
				heads++
				if inf.Kind(n) == 0 {
					t.Errorf("seed %d: chain head %s inferred as none", seed, n.Name())
				}
			}
		}
		if heads == 0 {
			t.Fatalf("seed %d: no chain heads found", seed)
		}
	}
}

// TestSCCScheduleRoundsBounded pins the point of the schedule: local round
// counts stay tiny on a graph whose call chains run dozens of levels deep,
// where round-robin iteration needs a global round per level.
func TestSCCScheduleRoundsBounded(t *testing.T) {
	tr := sitegen.GenerateTree(sitegen.DefaultTreeSpec(96, 5))
	var cgf []callgraph.File
	for _, f := range tr.Files {
		ast, _ := cparser.ParseSource(f.Name, f.Src, cpp.Options{Include: kernelhdr.Headers()})
		cgf = append(cgf, callgraph.File{Name: f.Name, AST: ast})
	}
	g := callgraph.BuildParallel(cgf, 0)

	scc := semprop.Infer(g, semprop.Options{})
	if scc.Levels < 20 {
		t.Fatalf("tree no longer adversarial for round-robin iteration (%d levels) — regenerate the spec", scc.Levels)
	}
	if scc.Rounds > 4 {
		t.Errorf("SCC local rounds = %d, want <= 4 (acyclic components evaluate once)", scc.Rounds)
	}
	if msg := fmt.Sprintf("scc=%d comps=%d levels=%d", scc.Rounds, scc.Components, scc.Levels); testing.Verbose() {
		t.Log(msg)
	}
}
