package ofence

import (
	"fmt"
	"strings"
	"testing"

	"ofence/internal/rank"
)

// checkOwnMargins fails unless every finding of the last run of p carries
// the score of its pairing's own writer's margin, and returns the margin
// of each pairing's writer by the writer's file.
func checkOwnMargins(t *testing.T, p *Project, what string) map[string]int {
	t.Helper()
	p.mu.Lock()
	last := p.last
	p.mu.Unlock()
	margins := map[string]int{}
	for _, it := range last.verdicts.items {
		w, ok := last.table.Index(it.pg.Writer())
		if !ok {
			t.Fatalf("%s: writer %s is not in the site table", what, it.pg.Writer().ID())
		}
		m := last.pairs.bests.At(w).margin()
		margins[it.pg.Writer().File] = m
		for _, f := range it.findings {
			if want := rank.Combine(evidenceFor(f, last.verdicts.census, m, nil)); f.Confidence != want {
				t.Errorf("%s: %s finding of %s scored %v, want %v under its writer's margin %d",
					what, f.Kind, f.Site.ID(), f.Confidence, want, m)
			}
		}
	}
	return margins
}

// TestEqualIDWritersOwnMargin pairs the two copies of one header function's
// smp_wmb, seen by the two files that include it, at depth 0. The copies
// share a site ID but not their objects: each file makes the function
// write its own struct. a.c has a second, farther reader, which gives its
// writer a runner-up; b.c's writer wins unopposed. Each pairing's findings
// must be scored under its own writer's margin — a map keyed by site ID
// gives both the last writer's — before and after an edit of either
// includer, and every warm run must equal a cold one.
func TestEqualIDWritersOwnMargin(t *testing.T) {
	const reader = `
int r%[1]s(struct s%[2]s *p)
{
	if (!p->b)
		return 0;
	smp_rmb();
%[3]s	return p->a;
}
`
	src := func(file string, extra int) string {
		s := fmt.Sprintf("#define S s%[1]s\nstruct s%[1]s { int a; int b; };\n#include \"pub.h\"\n", file)
		s += fmt.Sprintf(reader, file, file, "")
		if file == "a" {
			s += fmt.Sprintf(reader, "a2", file, strings.Repeat("\ttick();\n", 2+extra))
		}
		return s
	}
	p := NewProject()
	p.AddHeader("pub.h", "static inline void pub(struct S *p) { p->a = 1; smp_wmb(); p->b = 1; }\n")
	p.AddSources([]SourceFile{{Name: "a.c", Src: src("a", 0)}, {Name: "b.c", Src: src("b", 0)}})
	opts := DefaultOptions()
	res := mustAnalyze(t, p, opts)
	if len(res.Pairings) != 2 || res.Pairings[0].Writer().ID() != res.Pairings[1].Writer().ID() {
		t.Fatalf("want two pairings whose writers share a site ID, got %d", len(res.Pairings))
	}
	margins := checkOwnMargins(t, p, "cold")
	if margins["a.c"] == margins["b.c"] {
		t.Fatalf("both writers have margin %d; the test lost its subject", margins["a.c"])
	}
	// Scored under b.c's writer's margin, a.c's findings would differ.
	it := p.last.verdicts.items[0]
	f := it.findings[0]
	if rank.Combine(evidenceFor(f, p.last.verdicts.census, margins["b.c"], nil)) == f.Confidence {
		t.Fatal("the writers' margins give a.c's finding one score; the test lost its subject")
	}
	for _, st := range []struct {
		file string
		src  string
	}{
		{"b.c", src("b", 0) + "\nint other(void) { return 1; }\n"},
		{"a.c", src("a", 3)},
		{"b.c", src("b", 0)},
		{"a.c", src("a", 0)},
	} {
		p.ReplaceSource(st.file, st.src)
		what := "edit of " + st.file
		if got, want := resultJSON(t, mustAnalyze(t, p, opts)), coldProjectJSON(t, p, opts); got != want {
			t.Errorf("%s: warm output differs from a cold run", what)
		}
		checkOwnMargins(t, p, what)
	}
}
