package ofence

import (
	"encoding/json"
	"testing"

	"ofence/internal/memmodel"
)

// The interprocedural scenario the paper's one-level same-file exploration
// cannot handle: the write barrier lives in a helper defined in another
// file, so at depth 0 the barrier's window sees none of the caller's
// accesses and no pairing forms.
func interprocProject(t *testing.T) *Project {
	t.Helper()
	p := NewProject()
	p.AddHeader("shared.h", `struct foo { int data; int flag; };`)
	srcs := []SourceFile{
		{Name: "writer.c", Src: `
#include "shared.h"
void publish_barrier(void);
void producer(struct foo *f) {
	f->data = 1;
	publish_barrier();
	f->flag = 1;
}
`},
		{Name: "barrier.c", Src: `
void publish_barrier(void) { smp_wmb(); }
`},
		{Name: "reader.c", Src: `
#include "shared.h"
void consumer(struct foo *f) {
	int ready = f->flag;
	smp_rmb();
	int d = f->data;
}
`},
	}
	p.AddSources(srcs)
	return p
}

func TestInterprocCrossFilePairing(t *testing.T) {
	p := interprocProject(t)

	base := mustAnalyze(t, p, DefaultOptions())
	if len(base.ParseErrors) > 0 {
		t.Fatalf("parse errors: %v", base.ParseErrors)
	}
	if len(base.Pairings) != 0 {
		t.Fatalf("depth 0: pairings = %d, want 0 (barrier context is in another file)", len(base.Pairings))
	}
	if base.Inferred != nil {
		t.Fatalf("depth 0: inferred = %v, want nil", base.Inferred)
	}

	opts := DefaultOptions()
	opts.InterprocDepth = 2
	res := mustAnalyze(t, p, opts)
	if len(res.Pairings) != 1 {
		t.Fatalf("depth 2: pairings = %d, want 1", len(res.Pairings))
	}
	pg := res.Pairings[0]
	names := map[string]bool{}
	for _, s := range pg.Sites {
		names[s.Name] = true
	}
	if !names["smp_wmb"] || !names["smp_rmb"] {
		t.Errorf("pairing sites = %v, want smp_wmb <-> smp_rmb", names)
	}
	objs := map[string]bool{}
	for _, o := range pg.Common {
		objs[o.String()] = true
	}
	if !objs["(foo, data)"] || !objs["(foo, flag)"] {
		t.Errorf("common objects = %v, want (foo, data) and (foo, flag)", objs)
	}

	// The wrapper must be in the inferred set as a write barrier.
	found := false
	for _, f := range res.Inferred {
		if f.Name == "publish_barrier" {
			found = true
			if f.Kind != memmodel.WriteBarrier {
				t.Errorf("publish_barrier inferred as %v, want write", f.Kind)
			}
			if f.Known {
				t.Error("publish_barrier marked Known, but it is not in the built-in catalog")
			}
		}
	}
	if !found {
		t.Error("publish_barrier missing from the inferred set")
	}
	if res.CallGraph.Functions == 0 || res.CallGraph.Edges == 0 {
		t.Errorf("call graph stats empty: %+v", res.CallGraph)
	}
}

// The same physical barrier is seen from its home file and, inlined, from
// callers in other files; interproc analysis must keep exactly one site per
// physical barrier (the richest view).
func TestInterprocGlobalSiteDedup(t *testing.T) {
	p := interprocProject(t)
	opts := DefaultOptions()
	opts.InterprocDepth = 2
	res := mustAnalyze(t, p, opts)
	seen := map[string]bool{}
	for _, s := range res.Sites {
		if seen[s.ID()] {
			t.Errorf("duplicate site %s", s.ID())
		}
		seen[s.ID()] = true
	}
	// The winning smp_wmb view must be the producer's (it captured accesses).
	for _, s := range res.Sites {
		if s.Name == "smp_wmb" {
			if s.Fn.Name != "producer" {
				t.Errorf("smp_wmb site kept from %s, want producer (richest view)", s.Fn.Name)
			}
			if len(s.Before) == 0 || len(s.After) == 0 {
				t.Errorf("smp_wmb window empty: %d before, %d after", len(s.Before), len(s.After))
			}
		}
	}
}

// Default options must produce output byte-identical to a run that never
// heard of interprocedural mode: the zero InterprocDepth disables the call
// graph, the inference, and every new JSON field.
func TestDefaultOptionsByteIdentical(t *testing.T) {
	p := interprocProject(t)
	res := mustAnalyze(t, p, DefaultOptions())
	raw, err := json.Marshal(res.View())
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if _, ok := m["inferred_semantics"]; ok {
		t.Error("default-mode JSON contains inferred_semantics")
	}

	explicit := DefaultOptions()
	explicit.InterprocDepth = 0
	raw2, err := json.Marshal(mustAnalyze(t, p.Clone(), explicit).View())
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != string(raw2) {
		t.Errorf("explicit depth-0 output differs from default:\n%s\nvs\n%s", raw, raw2)
	}
}

// Switching between depths on one project must invalidate the extraction
// cache both ways (the options fingerprint includes InterprocDepth).
func TestInterprocCacheInvalidation(t *testing.T) {
	p := interprocProject(t)
	opts := DefaultOptions()
	opts.InterprocDepth = 2
	if n := len(mustAnalyze(t, p, opts).Pairings); n != 1 {
		t.Fatalf("depth 2: pairings = %d, want 1", n)
	}
	if n := len(mustAnalyze(t, p, DefaultOptions()).Pairings); n != 0 {
		t.Fatalf("back to depth 0: pairings = %d, want 0 (stale interproc extraction reused)", n)
	}
	if n := len(mustAnalyze(t, p, opts).Pairings); n != 1 {
		t.Fatalf("depth 2 again: pairings = %d, want 1", n)
	}
}

// A wrapper beyond the splice budget still bounds exploration via its
// inferred semantics instead of letting the window run through it — the
// degraded-but-sound behavior for deep call chains.
func TestInferredSemanticsBoundExploration(t *testing.T) {
	p := NewProject()
	p.AddHeader("shared.h", `struct foo { int data; int flag; };`)
	srcs := []SourceFile{
		{Name: "deep.c", Src: `
#include "shared.h"
void lvl1(void);
void user(struct foo *f) {
	f->data = 1;
	lvl1();
	f->flag = 1;
}
`},
		{Name: "lvl1.c", Src: `void lvl2(void); void lvl1(void) { lvl2(); }`},
		{Name: "lvl2.c", Src: `void lvl3(void); void lvl2(void) { lvl3(); }`},
		{Name: "lvl3.c", Src: `void lvl3(void) { smp_mb(); }`},
	}
	p.AddSources(srcs)
	opts := DefaultOptions()
	opts.InterprocDepth = 1 // lvl1's body splices, the chain below does not
	res := mustAnalyze(t, p, opts)
	if len(res.ParseErrors) > 0 {
		t.Fatalf("parse errors: %v", res.ParseErrors)
	}

	// The full chain carries the barrier on every path, so every level is
	// inferred as a full barrier.
	kinds := map[string]memmodel.BarrierKind{}
	for _, f := range res.Inferred {
		kinds[f.Name] = f.Kind
	}
	for _, fn := range []string{"lvl1", "lvl2", "lvl3"} {
		if kinds[fn] != memmodel.FullBarrier {
			t.Errorf("%s inferred as %v, want full", fn, kinds[fn])
		}
	}

	// In user's stream the spliced lvl1 body ends at the un-spliced lvl2()
	// call, whose inferred semantics must stop the smp_mb exploration there:
	// the barrier itself is out of splice reach, so no site sees f->data or
	// f->flag and nothing pairs.
	for _, s := range res.Sites {
		if s.Name == "smp_mb" && (len(s.Before) > 0 || len(s.After) > 0) {
			t.Errorf("smp_mb window crossed an inferred-barrier call: %s", s)
		}
	}
}

// A call inside a body spliced from another file binds with the visibility
// of that file. g, spliced from b.c into a.c's f, calls h: b.c's own empty
// static h, not a.c's static h with its barrier. Binding through the root
// file would plant a phantom smp_wmb in f between p->x and p->y.
func TestSplicedCalleeBindsInItsOwnFile(t *testing.T) {
	p := NewProject()
	p.AddSources([]SourceFile{
		{Name: "a.c", Src: `
struct s { int x; int y; };
void g(struct s *p);
static void h(void) { smp_wmb(); }
void f(struct s *p) { g(p); }
`},
		{Name: "b.c", Src: `
struct s { int x; int y; };
static void h(void) { }
void g(struct s *p) { p->x = 1; h(); p->y = 1; }
`},
	})
	for _, depth := range []int{0, 1} {
		opts := DefaultOptions()
		opts.InterprocDepth = depth
		res := mustAnalyze(t, p, opts)
		if len(res.ParseErrors) > 0 {
			t.Fatalf("parse errors: %v", res.ParseErrors)
		}
		if len(res.Sites) != 1 {
			t.Fatalf("depth %d: %d sites, want only a.c:h's smp_wmb", depth, len(res.Sites))
		}
		s := res.Sites[0]
		if s.File != "a.c" || s.Fn.Name != "h" || len(s.Before)+len(s.After) != 0 {
			t.Errorf("depth %d: site %s in %s:%s with %d+%d accesses, want a.c:h with none",
				depth, s.Name, s.File, s.Fn.Name, len(s.Before), len(s.After))
		}
	}
}
