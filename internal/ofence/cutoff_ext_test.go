package ofence_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"ofence/internal/callgraph"
	"ofence/internal/obs"
	"ofence/internal/ofence"
	"ofence/internal/semprop"
	"ofence/internal/sitegen"
)

// decimalLit matches a decimal integer literal that is not part of an
// identifier.
var decimalLit = regexp.MustCompile(`\b[0-9]+\b`)

// literalEdit sets one integer literal of src, outside preprocessor lines,
// to a new value drawn by rng.
func literalEdit(t testing.TB, rng *rand.Rand, src string) string {
	t.Helper()
	lines := strings.Split(src, "\n")
	type at struct{ line, lo, hi int }
	var lits []at
	for i, ln := range lines {
		if strings.HasPrefix(strings.TrimSpace(ln), "#") {
			continue
		}
		for _, m := range decimalLit.FindAllStringIndex(ln, -1) {
			lits = append(lits, at{i, m[0], m[1]})
		}
	}
	if len(lits) == 0 {
		t.Fatal("no literal to edit")
	}
	l := lits[rng.Intn(len(lits))]
	old := lines[l.line][l.lo:l.hi]
	val := old
	for val == old {
		val = fmt.Sprint(1 + rng.Intn(999))
	}
	lines[l.line] = lines[l.line][:l.lo] + val + lines[l.line][l.hi:]
	return strings.Join(lines, "\n")
}

// structuralEdit changes what a file contributes to the call graph: it
// either adds a barrier call to the file's first function or appends a new
// function.
func structuralEdit(t *testing.T, step int, src string) string {
	t.Helper()
	if step%2 == 0 {
		i := strings.Index(src, ")\n{\n")
		if i < 0 {
			t.Fatal("no function body to edit")
		}
		i += len(")\n{\n")
		return src[:i] + "\tsmp_mb();\n" + src[i:]
	}
	return src + fmt.Sprintf("\nvoid cutoff_probe_%d(void)\n{\n\tsmp_mb();\n}\n", step)
}

// spanCounter returns counter name of the one span called span.
func spanCounter(t *testing.T, tr *obs.Tracer, span, name string) int64 {
	t.Helper()
	var found []*obs.Span
	for _, sp := range tr.Spans() {
		if sp.Name() == span {
			found = append(found, sp)
		}
	}
	if len(found) != 1 {
		t.Fatalf("%d %q spans, want 1", len(found), span)
	}
	for _, c := range found[0].Counters() {
		if c.Name == name {
			return c.Value
		}
	}
	t.Fatalf("span %q has no counter %q", span, name)
	return 0
}

// freshGlobals builds the call graph and the inference of p's current
// ASTs anew.
func freshGlobals(p *ofence.Project, opts ofence.Options) (callgraph.Stats, []semprop.InferredFn) {
	var files []callgraph.File
	for _, fu := range p.Files() {
		files = append(files, callgraph.File{Name: fu.Name, AST: fu.AST})
	}
	g := callgraph.BuildParallel(files, 2)
	inf := semprop.Infer(g, semprop.Options{ExtraFull: opts.Access.ExtraBarrierSemantics})
	return g.Stats(), inf.Functions()
}

// TestEarlyCutoffDifferential drives seeded edit sequences over a small
// generated tree at depths 1 and 2. After every warm run the -json output
// must equal a cold run's, the call-graph statistics and the inferred set
// must equal a fresh build's, and the callgraph and semprop spans must
// report a cutoff exactly for the literal edits: a literal changes a
// fingerprint and no summary, every structural edit changes a summary.
func TestEarlyCutoffDifferential(t *testing.T) {
	tr := sitegen.GenerateTree(sitegen.DefaultTreeSpec(24, 3))
	names := make([]string, len(tr.Files))
	for i, f := range tr.Files {
		names[i] = f.Name
	}
	for _, depth := range []int{1, 2} {
		t.Run(fmt.Sprintf("depth%d", depth), func(t *testing.T) {
			opts := ofence.DefaultOptions()
			opts.InterprocDepth = depth
			opts.Workers = 2
			warm := ofence.NewProject()
			loadTree(warm, tr)
			mustAnalyze(t, warm, opts)
			edited := map[string]string{}
			src := func(name string) string {
				if s, ok := edited[name]; ok {
					return s
				}
				for _, f := range tr.Files {
					if f.Name == name {
						return f.Src
					}
				}
				return ""
			}
			rng := rand.New(rand.NewSource(int64(depth)))
			for step := 0; step < 12; step++ {
				structural := step%3 == 2
				name := names[rng.Intn(len(names))]
				if structural {
					edited[name] = structuralEdit(t, step, src(name))
				} else {
					edited[name] = literalEdit(t, rng, src(name))
				}
				warm.ReplaceSource(name, edited[name])
				tracer := obs.New()
				res, err := warm.AnalyzeParallel(obs.WithTracer(context.Background(), tracer), opts)
				if err != nil {
					t.Fatal(err)
				}
				want := int64(1)
				if structural {
					want = 0
				}
				for _, span := range []string{"callgraph", "semprop"} {
					if got := spanCounter(t, tracer, span, "cutoff"); got != want {
						t.Errorf("step %d (%s, structural=%t): %s cutoff=%d, want %d", step, name, structural, span, got, want)
					}
				}
				// A literal in a configured-out block leaves the token
				// stream, and so the summary, as it was.
				if got := spanCounter(t, tracer, "callgraph", "files_summarized"); got > 1 || structural && got != 1 {
					t.Errorf("step %d (structural=%t): files_summarized=%d, want 1 at most", step, structural, got)
				}

				cold := ofence.NewProject()
				loadTree(cold, tr)
				for n, s := range edited {
					cold.ReplaceSource(n, s)
				}
				if w, c := viewJSON(t, res), viewJSON(t, mustAnalyze(t, cold, opts)); w != c {
					t.Fatalf("step %d (%s): warm output differs from cold", step, name)
				}
				stats, inferred := freshGlobals(warm, opts)
				if res.CallGraph != stats {
					t.Errorf("step %d: call graph %+v, a fresh build gives %+v", step, res.CallGraph, stats)
				}
				if !reflect.DeepEqual(res.Inferred, inferred) {
					t.Errorf("step %d: inferred set differs from a fresh inference", step)
				}
			}
		})
	}
}

// TestCloneSharesGlobalRecord analyzes a project and two clones
// concurrently after each took a different edit — a literal edit on one
// (cutoff) and a structural edit on the other (relink) — and checks every
// run against a cold analysis. Clones share the linked record until one
// replaces its own; run under -race by the CI race job.
func TestCloneSharesGlobalRecord(t *testing.T) {
	tr := sitegen.GenerateTree(sitegen.DefaultTreeSpec(16, 5))
	opts := ofence.DefaultOptions()
	opts.InterprocDepth = 1
	opts.Workers = 2
	base := ofence.NewProject()
	loadTree(base, tr)
	mustAnalyze(t, base, opts)

	rng := rand.New(rand.NewSource(9))
	type variant struct {
		p      *ofence.Project
		edited map[string]string
	}
	variants := []variant{{p: base, edited: map[string]string{}}}
	for i := 0; i < 2; i++ {
		variants = append(variants, variant{p: base.Clone(), edited: map[string]string{}})
	}
	f0, f1 := tr.Files[0], tr.Files[len(tr.Files)-1]
	variants[1].edited[f0.Name] = literalEdit(t, rng, f0.Src)
	variants[2].edited[f1.Name] = structuralEdit(t, 1, f1.Src)
	for _, v := range variants {
		for n, s := range v.edited {
			v.p.ReplaceSource(n, s)
		}
	}

	results := make([]*ofence.Result, len(variants))
	var wg sync.WaitGroup
	for i, v := range variants {
		wg.Add(1)
		go func(i int, p *ofence.Project) {
			defer wg.Done()
			res, err := p.AnalyzeParallel(context.Background(), opts)
			if err != nil {
				t.Error(err)
			}
			results[i] = res
		}(i, v.p)
	}
	wg.Wait()
	for i, v := range variants {
		if results[i] == nil {
			continue
		}
		cold := ofence.NewProject()
		loadTree(cold, tr)
		var edited []string
		for n, s := range v.edited {
			cold.ReplaceSource(n, s)
			edited = append(edited, n)
		}
		sort.Strings(edited)
		if viewJSON(t, results[i]) != viewJSON(t, mustAnalyze(t, cold, opts)) {
			t.Errorf("variant %d (edited %v): output differs from a cold run", i, edited)
		}
	}

	// The clone's relink replaced its own record only: the original's next
	// run still cuts off.
	tracer := obs.New()
	if _, err := base.AnalyzeParallel(obs.WithTracer(context.Background(), tracer), opts); err != nil {
		t.Fatal(err)
	}
	if got := spanCounter(t, tracer, "callgraph", "cutoff"); got != 1 {
		t.Errorf("original after the clones ran: cutoff=%d, want 1", got)
	}
}
