package ofence

import (
	"context"
	"fmt"
	"maps"
	"regexp"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"ofence/internal/access"
	"ofence/internal/callgraph"
	"ofence/internal/kernelhdr"
	"ofence/internal/obs"
	"ofence/internal/sitegen"
)

// dedupReference is the from-scratch dedup and order that deriveSites
// replaces at depth ≥ 1: over every file's sites in file order, one view per site ID —
// the richest, the first seen on ties — sorted into canonical order.
func dedupReference(files []*FileUnit) []*access.Site {
	best := map[string]*access.Site{}
	var order []string
	for _, fu := range files {
		for _, s := range fu.Sites {
			id := s.ID()
			cur, ok := best[id]
			if !ok {
				best[id] = s
				order = append(order, id)
				continue
			}
			if s.Richness() > cur.Richness() {
				best[id] = s
			}
		}
	}
	out := make([]*access.Site, 0, len(order))
	for _, id := range order {
		out = append(out, best[id])
	}
	access.SortSites(out)
	return out
}

// carriersReference maps each site ID to the positions of the files whose
// sites carry it, ascending.
func carriersReference(files []*FileUnit) map[string][]int32 {
	out := map[string][]int32{}
	for i, fu := range files {
		for _, s := range fu.Sites {
			out[s.ID()] = append(out[s.ID()], int32(i))
		}
	}
	return out
}

// checkDerived fails unless the records the last depth ≥ 1 run of p left
// equal a from-scratch computation over p's current files: every file's
// observed-input key equals Observations.Key over the current summaries,
// and the site record's sites, carriers and units equal the reference.
func checkDerived(t *testing.T, p *Project, what string) {
	t.Helper()
	p.mu.Lock()
	files := slices.Clone(p.files)
	g, d := p.global, p.last.sites
	p.mu.Unlock()
	sums := make([]*callgraph.Summary, len(files))
	for i, fu := range files {
		sums[i] = fu.art.summary
	}
	for i, fu := range files {
		if want := g.obs.Key(i, sums); g.keys[i] != want {
			t.Errorf("%s: derived key of %s differs from Observations.Key", what, fu.Name)
		}
	}
	if want := dedupReference(files); !slices.Equal(d.sites, want) {
		t.Errorf("%s: derived dedup differs from the reference: %d sites, want %d", what, len(d.sites), len(want))
	}
	if want := carriersReference(files); !maps.EqualFunc(d.carriers, want, slices.Equal[[]int32]) {
		t.Errorf("%s: derived carriers differ from the reference", what)
	}
	for i, fu := range files {
		if !sameSites(*d.units.At(i), fu.Sites) || d.names[i] != fu.Name {
			t.Errorf("%s: the site record's unit %d is not %s's sites", what, i, fu.Name)
		}
	}
}

// findingsReference is the from-scratch order that the verdict record's
// derived one replaces: every finding in check order — each pairing's,
// then the unneeded barriers' — stably sorted by file, line and kind.
func findingsReference(rec *verdictRecord) []*Finding {
	var out []*Finding
	for _, it := range rec.items {
		out = append(out, it.findings...)
	}
	out = append(out, rec.unneeded...)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Site.File != b.Site.File {
			return a.Site.File < b.Site.File
		}
		if a.Site.Pos.Line != b.Site.Pos.Line {
			return a.Site.Pos.Line < b.Site.Pos.Line
		}
		return a.Kind < b.Kind
	})
	return out
}

// checkDerivedOrder fails unless the last run of p left a verdict record
// whose finding order equals findingsReference and, at depth 0, a site
// record whose sites are every file's, stably sorted into canonical
// order.
func checkDerivedOrder(t *testing.T, p *Project, opts Options, what string) {
	t.Helper()
	p.mu.Lock()
	files := slices.Clone(p.files)
	rec, order := p.last.verdicts, p.last.sites
	p.mu.Unlock()
	if len(rec.sorted) == 0 {
		t.Fatalf("%s: no findings; the test lost its subject", what)
	}
	if want := findingsReference(rec); !slices.Equal(rec.sorted, want) {
		t.Errorf("%s: derived finding order differs from a full stable sort (%d findings, want %d)", what, len(rec.sorted), len(want))
	}
	if opts.InterprocDepth > 0 {
		return
	}
	var want []*access.Site
	for i, fu := range files {
		want = append(want, fu.Sites...)
		if !sameSites(*order.units.At(i), fu.Sites) || order.names[i] != fu.Name {
			t.Errorf("%s: the site record's unit %d is not %s's sites", what, i, fu.Name)
		}
	}
	access.SortSites(want)
	if !slices.Equal(order.sites, want) {
		t.Errorf("%s: derived depth-0 site order differs from a full stable sort", what)
	}
}

// TestDerivedOrder drives a generated tree from depths 0 and 1 through a
// literal edit, a whitespace edit, a restore, a new cross-file call and a
// Define. After every run the derived finding order must equal a full
// stable sort and, at depth 0, the derived site order too; every warm run
// must equal a cold one, and the literal edit must visit fewer findings
// than it ranks.
func TestDerivedOrder(t *testing.T) {
	tr := sitegen.GenerateTree(sitegen.DefaultTreeSpec(24, 7))
	for _, depth := range []int{0, 1} {
		t.Run(fmt.Sprintf("depth%d", depth), func(t *testing.T) {
			opts := DefaultOptions()
			opts.InterprocDepth = depth
			opts.Workers = 2
			p := NewProject()
			loadGenTree(p, tr)
			res := mustAnalyze(t, p, opts)
			checkDerivedOrder(t, p, opts, "cold")
			f, g := tr.Files[3], tr.Files[4]
			m := voidFunc.FindStringIndex(f.Src)
			callee := voidFunc.FindStringSubmatch(g.Src)
			if m == nil || callee == nil || !storedLiteral.MatchString(f.Src) {
				t.Fatal("the tree lost the shapes the edits need")
			}
			literal := strings.Replace(f.Src, storedLiteral.FindString(f.Src), "= 977;", 1)
			// A store next to a barrier to an object of another file's
			// pairing moves that object's census row and re-scores some
			// of the pairing's findings, which merge back among the rest.
			var obj access.Object
			for _, pg := range res.Pairings {
				if !slices.ContainsFunc(pg.Sites, func(s *access.Site) bool { return s.File == f.Name }) {
					obj = pg.Common[0]
					break
				}
			}
			object := f.Src + fmt.Sprintf("\nvoid order_probe(struct %s *p)\n{\n\tp->%s = 5;\n\tsmp_mb();\n}\n", obj.Struct, obj.Field)
			steps := []struct {
				what string
				do   func()
			}{
				{"literal", func() { p.ReplaceSource(f.Name, literal) }},
				{"whitespace", func() { p.ReplaceSource(f.Name, literal+"\n\n") }},
				{"restore", func() { p.ReplaceSource(f.Name, f.Src) }},
				{"object", func() { p.ReplaceSource(f.Name, object) }},
				{"new call", func() { p.ReplaceSource(f.Name, f.Src[:m[1]]+"\t"+callee[1]+"();\n"+f.Src[m[1]:]) }},
				{"define", func() { p.Define(tr.Configs[1], "1") }},
			}
			for _, st := range steps {
				st.do()
				tracer := obs.New()
				res, err := p.AnalyzeParallel(obs.WithTracer(context.Background(), tracer), opts)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := resultJSON(t, res), coldProjectJSON(t, p, opts); got != want {
					t.Errorf("%s: warm output differs from a cold run", st.what)
				}
				checkDerivedOrder(t, p, opts, st.what)
				sp := onlySpan(t, tracer, "rank")
				if visited, ranked := spanCount(sp, "findings_visited"), spanCount(sp, "ranked"); st.what == "literal" && visited >= ranked {
					t.Errorf("literal edit visited %d findings of %d", visited, ranked)
				}
				if st.what == "object" && spanCount(sp, "findings_visited") == spanCount(sp, "findings_rescored") {
					t.Errorf("object edit re-scored every finding it visited; the test lost its subject")
				}
			}
		})
	}
}

// TestDerivedOrderTies keys findings of two pairings alike: a header's
// writer and a writer of the including file on the same line number have
// the same file, line and kind, so check order — the canonical order of
// the writers — decides. An edit of one pairing's reader re-checks that
// pairing alone, and its findings must merge back where a full sort puts
// them.
func TestDerivedOrderTies(t *testing.T) {
	reader := `struct s { int a; int b; };
struct t { int x; int y; };
int r%[1]d(struct %[2]s *p)
{
	if (!p->%[3]s)
		return 0;
	smp_rmb();
	return p->%[4]s + %[5]d;
}
`
	p := NewProject()
	p.AddHeader("pub.h", "struct s { int a; int b; };\nstatic inline void pub(struct s *p) { p->a = 1; smp_wmb(); p->b = 1; }\n")
	p.AddSources([]SourceFile{
		{Name: "a.c", Src: "#include \"pub.h\"\nstruct t { int x; int y; }; void w2(struct t *q) { q->x = 1; smp_wmb(); q->y = 1; }\n"},
		{Name: "b.c", Src: fmt.Sprintf(reader, 1, "s", "b", "a", 0)},
		{Name: "c.c", Src: fmt.Sprintf(reader, 2, "t", "y", "x", 0)},
	})
	opts := DefaultOptions()
	res := mustAnalyze(t, p, opts)
	if len(res.Pairings) != 2 || res.Pairings[0].Writer().Pos.Line != res.Pairings[1].Writer().Pos.Line {
		t.Fatalf("want two pairings whose writers share a line, got %d", len(res.Pairings))
	}
	tied := 0
	for _, f := range res.Findings {
		if f.Site.File == "a.c" && f.Kind == MissingOnce {
			tied++
		}
	}
	if tied < 4 {
		t.Fatalf("%d missing-ONCE findings in a.c, want both writers'", tied)
	}
	checkDerivedOrder(t, p, opts, "cold")
	for i, lit := range []int{7, 8, 0} {
		p.ReplaceSource("c.c", fmt.Sprintf(reader, 2, "t", "y", "x", lit))
		what := fmt.Sprintf("edit %d of c.c", i)
		if got, want := resultJSON(t, mustAnalyze(t, p, opts)), coldProjectJSON(t, p, opts); got != want {
			t.Errorf("%s: warm output differs from a cold run", what)
		}
		checkDerivedOrder(t, p, opts, what)
		p.ReplaceSource("b.c", fmt.Sprintf(reader, 1, "s", "b", "a", lit))
		what = fmt.Sprintf("edit %d of b.c", i)
		if got, want := resultJSON(t, mustAnalyze(t, p, opts)), coldProjectJSON(t, p, opts); got != want {
			t.Errorf("%s: warm output differs from a cold run", what)
		}
		checkDerivedOrder(t, p, opts, what)
	}
}

// loadGenTree fills p with a generated tree: the kernel headers, the
// tree's headers, every other config symbol and every source file.
func loadGenTree(p *Project, tr *sitegen.Tree) {
	kernelhdr.Register(p)
	for _, h := range tr.Headers {
		p.AddHeader(h.Name, h.Src)
	}
	for i, c := range tr.Configs {
		if i%2 == 0 {
			p.Define(c, "1")
		}
	}
	for _, f := range tr.Files {
		p.AddSource(f.Name, f.Src)
	}
}

// coldProjectJSON analyzes p's current sources, headers and defines in a fresh
// project and returns its -json view.
func coldProjectJSON(t *testing.T, p *Project, opts Options) string {
	t.Helper()
	q := NewProject()
	p.mu.Lock()
	for path, src := range p.headers {
		q.AddHeader(path, src)
	}
	for name, v := range p.defines {
		q.Define(name, v)
	}
	for _, fu := range p.files {
		q.AddSource(fu.Name, fu.src)
	}
	p.mu.Unlock()
	return resultJSON(t, mustAnalyze(t, q, opts))
}

var (
	storedLiteral = regexp.MustCompile(`= [0-9]+;`)
	voidFunc      = regexp.MustCompile(`(?m)^void ([a-z_0-9]+)\(void\)\n\{\n`)
)

// TestDerivedKeysAndDedup drives a generated tree at depth 1 through a
// literal edit of a file other files splice, a whitespace edit, a
// restore, a new cross-file call, a Define and an option flip to depth 0
// and back. After every run the derived observed-input keys must equal
// Observations.Key, and the derived dedup and order the from-scratch
// reference. The literal edit must re-hash exactly the keys of the files
// that read the edited one and choose a view again only for its site IDs,
// and every warm run must equal a cold analysis.
func TestDerivedKeysAndDedup(t *testing.T) {
	tr := sitegen.GenerateTree(sitegen.DefaultTreeSpec(24, 7))
	opts := DefaultOptions()
	opts.InterprocDepth = 1
	opts.Workers = 2
	p := NewProject()
	loadGenTree(p, tr)
	mustAnalyze(t, p, opts)
	checkDerived(t, p, "cold")

	// The edited file: one whose fingerprints other files' keys read.
	p.mu.Lock()
	g := p.global
	p.mu.Unlock()
	j := -1
	for i := range tr.Files {
		if len(g.obs.Readers(i)) > 0 {
			j = i
			break
		}
	}
	if j < 0 {
		t.Fatal("no file is read by another file's key")
	}
	name, orig := tr.Files[j].Name, tr.Files[j].Src
	callee := ""
	for _, f := range tr.Files {
		if m := voidFunc.FindStringSubmatch(f.Src); f.Name != name && m != nil {
			callee = m[1]
			break
		}
	}
	m := voidFunc.FindStringIndex(orig)
	if m == nil || callee == "" || !storedLiteral.MatchString(orig) {
		t.Fatal("the tree lost the shapes the edits need")
	}
	literal := strings.Replace(orig, storedLiteral.FindString(orig), "= 977;", 1)
	steps := []struct {
		what string
		do   func()
	}{
		{"literal", func() { p.ReplaceSource(name, literal) }},
		{"whitespace", func() { p.ReplaceSource(name, literal+"\n\n") }},
		{"restore", func() { p.ReplaceSource(name, orig) }},
		{"new call", func() { p.ReplaceSource(name, orig[:m[1]]+"\t"+callee+"();\n"+orig[m[1]:]) }},
		{"define", func() { p.Define(tr.Configs[1], "1") }},
		{"depth 0", func() { opts.InterprocDepth = 0 }},
		{"depth 1", func() { opts.InterprocDepth = 1; p.ReplaceSource(name, literal) }},
	}
	for _, st := range steps {
		st.do()
		tracer := obs.New()
		res, err := p.AnalyzeParallel(obs.WithTracer(context.Background(), tracer), opts)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := resultJSON(t, res), coldProjectJSON(t, p, opts); got != want {
			t.Errorf("%s: warm output differs from a cold run", st.what)
		}
		if opts.InterprocDepth == 0 {
			continue
		}
		checkDerived(t, p, st.what)
		if st.what != "literal" {
			continue
		}
		p.mu.Lock()
		readers := len(p.global.obs.Readers(j))
		sites := len(p.files[j].Sites)
		p.mu.Unlock()
		if got := spanCount(onlySpan(t, tracer, "extract_keys"), "keys_recomputed"); got != readers {
			t.Errorf("literal edit re-hashed %d keys, want the %d of the files reading %s", got, readers, name)
		}
		if got := spanCount(onlySpan(t, tracer, "dedup"), "ids_rechosen"); got == 0 || got > sites {
			t.Errorf("literal edit chose %d site IDs again, want 1 to %d", got, sites)
		}
	}
}

// onlySpan returns the one span of tr called name.
func onlySpan(t *testing.T, tr *obs.Tracer, name string) *obs.Span {
	t.Helper()
	var found []*obs.Span
	for _, sp := range tr.Spans() {
		if sp.Name() == name {
			found = append(found, sp)
		}
	}
	if len(found) != 1 {
		t.Fatalf("%d %q spans, want 1", len(found), name)
	}
	return found[0]
}

// TestCloneDerivesConcurrently gives a project and its clone different
// edits — a literal edit on one, a new cross-file call on the other — and
// analyzes both at once, twice over, at depths 0 and 1. Both derive from
// the records they share; each must equal a cold analysis of its own
// sources and hold records equal to the from-scratch references. The CI
// race job runs it; run it under -race -count=10 after a change to a
// record.
func TestCloneDerivesConcurrently(t *testing.T) {
	for _, depth := range []int{0, 1} {
		t.Run(fmt.Sprintf("depth%d", depth), func(t *testing.T) { cloneDerivesConcurrently(t, depth) })
	}
}

func cloneDerivesConcurrently(t *testing.T, depth int) {
	tr := sitegen.GenerateTree(sitegen.DefaultTreeSpec(16, 5))
	opts := DefaultOptions()
	opts.InterprocDepth = depth
	opts.Workers = 2
	p := NewProject()
	loadGenTree(p, tr)
	mustAnalyze(t, p, opts)
	q := p.Clone()
	a, b := tr.Files[1], tr.Files[2]
	m := voidFunc.FindStringIndex(b.Src)
	callee := voidFunc.FindStringSubmatch(a.Src)
	if !storedLiteral.MatchString(a.Src) || m == nil || callee == nil {
		t.Fatal("the tree lost the shapes the edits need")
	}
	for round := 0; round < 2; round++ {
		p.ReplaceSource(a.Name, strings.Replace(a.Src, storedLiteral.FindString(a.Src), fmt.Sprintf("= %d;", 900+round), 1))
		q.ReplaceSource(b.Name, b.Src[:m[1]]+strings.Repeat("\t"+callee[1]+"();\n", round+1)+b.Src[m[1]:])
		projects := []*Project{p, q}
		results := make([]*Result, 2)
		var wg sync.WaitGroup
		for i, pr := range projects {
			wg.Add(1)
			go func(i int, pr *Project) {
				defer wg.Done()
				res, err := pr.AnalyzeParallel(context.Background(), opts)
				if err != nil {
					t.Error(err)
				}
				results[i] = res
			}(i, pr)
		}
		wg.Wait()
		for i, pr := range projects {
			what := fmt.Sprintf("round %d, project %d", round, i)
			if results[i] == nil {
				t.Fatalf("%s: no result", what)
			}
			if resultJSON(t, results[i]) != coldProjectJSON(t, pr, opts) {
				t.Errorf("%s: output differs from a cold run", what)
			}
			checkDerivedOrder(t, pr, opts, what)
			if depth > 0 {
				checkDerived(t, pr, what)
			}
		}
	}
}
