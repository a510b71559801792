package ofence

import (
	"context"
	"fmt"
	"maps"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"

	"ofence/internal/access"
	"ofence/internal/callgraph"
	"ofence/internal/kernelhdr"
	"ofence/internal/obs"
	"ofence/internal/sitegen"
)

// dedupReference is the from-scratch dedup and order that deriveDedup
// replaces: over every file's sites in file order, one view per site ID —
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
	sortSites(out)
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
// and the dedup record's sites, carriers and units equal the reference.
func checkDerived(t *testing.T, p *Project, what string) {
	t.Helper()
	p.mu.Lock()
	files := slices.Clone(p.files)
	g, d := p.global, p.dedup
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
		if !sameSites(d.units[i], fu.Sites) || d.names[i] != fu.Name {
			t.Errorf("%s: the dedup record's unit %d is not %s's sites", what, i, fu.Name)
		}
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

// TestCloneDerivesConcurrently gives a depth-1 project and its clone
// different edits — a literal edit on one, a new cross-file call on the
// other — and analyzes both at once, twice over. Both derive from the
// records they share; each must equal a cold analysis of its own sources
// and hold records equal to the from-scratch reference.
func TestCloneDerivesConcurrently(t *testing.T) {
	tr := sitegen.GenerateTree(sitegen.DefaultTreeSpec(16, 5))
	opts := DefaultOptions()
	opts.InterprocDepth = 1
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
			checkDerived(t, pr, what)
		}
	}
}
