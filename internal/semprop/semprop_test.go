package semprop_test

import (
	"testing"

	"ofence/internal/callgraph"
	"ofence/internal/corpus"
	"ofence/internal/cparser"
	"ofence/internal/cpp"
	"ofence/internal/kernelhdr"
	"ofence/internal/memmodel"
	"ofence/internal/semprop"
)

func buildGraph(t *testing.T, files map[string]string) *callgraph.Graph {
	t.Helper()
	var cgf []callgraph.File
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	// Map order is random; sort for deterministic node order.
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			if names[j] < names[i] {
				names[i], names[j] = names[j], names[i]
			}
		}
	}
	for _, name := range names {
		ast, _ := cparser.ParseSource(name, files[name], cpp.Options{Include: kernelhdr.Headers()})
		cgf = append(cgf, callgraph.File{Name: name, AST: ast})
	}
	return callgraph.BuildParallel(cgf, 0)
}

func inferKinds(t *testing.T, files map[string]string) map[string]memmodel.BarrierKind {
	t.Helper()
	inf := semprop.Infer(buildGraph(t, files), semprop.Options{})
	if !inf.Converged {
		t.Fatalf("no fixpoint after %d rounds", inf.Rounds)
	}
	kinds := map[string]memmodel.BarrierKind{}
	for _, n := range inf.Graph.Nodes {
		kinds[n.Name()] = inf.Kind(n)
	}
	return kinds
}

func TestAllPathsBarrierClassification(t *testing.T) {
	kinds := inferKinds(t, map[string]string{"a.c": `
void always(int *p) { *p = 1; smp_mb(); }
void wronly(int *p) { *p = 1; smp_wmb(); }
void rdonly(int *p) { smp_rmb(); *p = 1; }
void maybe(int c) { if (c) smp_mb(); }
void both_arms(int c) { if (c) smp_mb(); else smp_mb(); }
void mixed_arms(int c) { if (c) smp_wmb(); else smp_rmb(); }
void sequential(void) { smp_rmb(); smp_wmb(); }
void early_out(int c) { if (!c) return; smp_mb(); }
void in_loop(int n) { while (n) { smp_mb(); n = n - 1; } }
void do_loop(int n) { do { smp_mb(); } while (n); }
void empty(void) { }
`})
	want := map[string]memmodel.BarrierKind{
		"always":     memmodel.FullBarrier,
		"wronly":     memmodel.WriteBarrier,
		"rdonly":     memmodel.ReadBarrier,
		"maybe":      memmodel.None, // barrier only on one path
		"both_arms":  memmodel.FullBarrier,
		"mixed_arms": memmodel.None,        // read ∧ write = none: neither is guaranteed
		"sequential": memmodel.FullBarrier, // read ∨ write = full
		"early_out":  memmodel.None,        // the early return path has no barrier
		"in_loop":    memmodel.None,        // while body may not execute
		"do_loop":    memmodel.FullBarrier, // do-while body always executes
		"empty":      memmodel.None,
	}
	for name, w := range want {
		if kinds[name] != w {
			t.Errorf("%s = %v, want %v", name, kinds[name], w)
		}
	}
}

func TestWrapperPropagation(t *testing.T) {
	// A three-deep wrapper chain across files: the kind must propagate
	// bottom-up through the call graph.
	kinds := inferKinds(t, map[string]string{
		"low.c": `void publish_low(int *p) { *p = 1; smp_wmb(); }`,
		"mid.c": `void publish_mid(int *p) { publish_low(p); }`,
		"top.c": `void publish_top(int *p) { publish_mid(p); }
		          void cond_top(int c, int *p) { if (c) publish_mid(p); }`,
	})
	for _, fn := range []string{"publish_low", "publish_mid", "publish_top"} {
		if kinds[fn] != memmodel.WriteBarrier {
			t.Errorf("%s = %v, want write", fn, kinds[fn])
		}
	}
	if kinds["cond_top"] != memmodel.None {
		t.Errorf("cond_top = %v, want none", kinds["cond_top"])
	}
}

func TestTable2CallContributes(t *testing.T) {
	// Calling a catalog barrier function (Table 2) counts like a barrier.
	kinds := inferKinds(t, map[string]string{"a.c": `
void via_atomic(int *p) { atomic_dec_and_test(p); }
void via_nonbarrier(int *p) { atomic_set(p, 0); }
`})
	if kinds["via_atomic"] != memmodel.FullBarrier {
		t.Errorf("via_atomic = %v, want full", kinds["via_atomic"])
	}
	if kinds["via_nonbarrier"] != memmodel.None {
		t.Errorf("via_nonbarrier = %v, want none", kinds["via_nonbarrier"])
	}
}

func TestRecursionConverges(t *testing.T) {
	kinds := inferKinds(t, map[string]string{"r.c": `
void rec_b(int n) { smp_mb(); if (n) rec_b(n - 1); }
void ping(int n);
void pong(int n) { smp_wmb(); if (n) ping(n - 1); }
void ping(int n) { smp_wmb(); if (n) pong(n - 1); }
void rec_cond(int n) { if (n) { smp_mb(); rec_cond(n - 1); } }
`})
	if kinds["rec_b"] != memmodel.FullBarrier {
		t.Errorf("rec_b = %v, want full", kinds["rec_b"])
	}
	if kinds["ping"] != memmodel.WriteBarrier || kinds["pong"] != memmodel.WriteBarrier {
		t.Errorf("ping/pong = %v/%v, want write/write", kinds["ping"], kinds["pong"])
	}
	if kinds["rec_cond"] != memmodel.None {
		t.Errorf("rec_cond = %v, want none", kinds["rec_cond"])
	}
}

func TestUnresolvedPointerDegrades(t *testing.T) {
	kinds := inferKinds(t, map[string]string{"p.c": `
struct ops { void (*cb)(void); };
void through_ptr(struct ops *o) { smp_mb(); o->cb(); }
void only_ptr(struct ops *o) { o->cb(); }
`})
	// The unresolved pointer call contributes none but must not erase the
	// explicit barrier, nor invent one.
	if kinds["through_ptr"] != memmodel.FullBarrier {
		t.Errorf("through_ptr = %v, want full", kinds["through_ptr"])
	}
	if kinds["only_ptr"] != memmodel.None {
		t.Errorf("only_ptr = %v, want none", kinds["only_ptr"])
	}
}

// The acceptance gate: inference over the Table 2 model re-derives exactly
// the catalog's MemoryBarrier entries as full barriers.
func TestRederivesTable2(t *testing.T) {
	kinds := inferKinds(t, map[string]string{semprop.Table2ModelFile: semprop.Table2ModelSource()})
	for _, s := range memmodel.Functions {
		got, defined := kinds[s.Name]
		if !defined {
			t.Errorf("%s: not in model graph", s.Name)
			continue
		}
		want := memmodel.None
		if s.MemoryBarrier {
			want = memmodel.FullBarrier
		}
		if got != want {
			t.Errorf("%s = %v, want %v (catalog MemoryBarrier=%t)", s.Name, got, want, s.MemoryBarrier)
		}
	}
}

// Fixpoint over the full synthetic corpus plus the paper fixtures plus the
// Table 2 model: must converge well under the theoretical round bound and
// re-derive the catalog barriers.
func TestCorpusFixpoint(t *testing.T) {
	files := map[string]string{semprop.Table2ModelFile: semprop.Table2ModelSource()}
	c := corpus.Generate(corpus.DefaultConfig(42))
	for _, sf := range c.Sources() {
		files[sf.Name] = sf.Src
	}
	for _, fx := range corpus.Fixtures() {
		files["fixture/"+fx.Name] = fx.Source
	}
	g := buildGraph(t, files)
	inf := semprop.Infer(g, semprop.Options{})
	if !inf.Converged {
		t.Fatalf("no fixpoint after %d rounds over %d functions", inf.Rounds, len(g.Nodes))
	}
	if bound := 2*len(g.Nodes) + 1; inf.Rounds >= bound {
		t.Errorf("rounds = %d, expected well under bound %d", inf.Rounds, bound)
	}

	inferred := map[string]memmodel.BarrierKind{}
	for _, f := range inf.Functions() {
		inferred[f.Name] = f.Kind
	}
	for _, s := range memmodel.Functions {
		if !s.MemoryBarrier {
			continue
		}
		if inferred[s.Name] != memmodel.FullBarrier {
			t.Errorf("Table 2 %s not re-derived (got %v)", s.Name, inferred[s.Name])
		}
	}
	// The corpus's own barrier-wrapping functions must extend the table:
	// at least one inferred function outside the built-in catalog.
	extra := 0
	for _, f := range inf.Functions() {
		if !f.Known {
			extra++
		}
	}
	if extra == 0 {
		t.Error("no corpus functions inferred beyond the built-in catalog")
	}
}

func TestFunctionsDeterministicOrder(t *testing.T) {
	files := map[string]string{
		"b.c": `void wb(int *p) { *p = 1; smp_wmb(); }`,
		"a.c": `void fb(void) { smp_mb(); } void wb2(int *p) { wb(p); }`,
	}
	var prev []semprop.InferredFn
	for i := 0; i < 5; i++ {
		inf := semprop.Infer(buildGraph(t, files), semprop.Options{})
		fns := inf.Functions()
		if i > 0 {
			if len(fns) != len(prev) {
				t.Fatalf("run %d: %d fns, was %d", i, len(fns), len(prev))
			}
			for j := range fns {
				if fns[j] != prev[j] {
					t.Fatalf("run %d: order differs at %d: %+v vs %+v", i, j, fns[j], prev[j])
				}
			}
		}
		prev = fns
	}
}
