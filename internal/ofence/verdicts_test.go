package ofence_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"ofence/internal/obs"
	"ofence/internal/ofence"
	"ofence/internal/rank"
	"ofence/internal/sitegen"
)

// objectEdit appends to src a function that stores to obj, an object of a
// pairing in another file, next to a barrier, so obj's census row changes
// while that pairing stays as it was. With fresh set the function also
// writes the fields of a struct of its own, so the tree's object set, and
// with it the interner's IDs, changes too.
func objectEdit(step int, src string, obj ofence.ObjectView, fresh bool) string {
	if !fresh {
		return src + fmt.Sprintf(`
void verdict_probe_%[1]d(struct %[2]s *p)
{
	p->%[3]s = %[1]d;
	smp_mb();
}
`, step, obj.Struct, obj.Field)
	}
	return src + fmt.Sprintf(`
struct aa_verdict_probe_%[1]d { int a; int b; };
void verdict_probe_%[1]d(struct aa_verdict_probe_%[1]d *q, struct %[2]s *p)
{
	q->a = 1;
	p->%[3]s = %[1]d;
	smp_mb();
	q->b = 1;
}
`, step, obj.Struct, obj.Field)
}

// foreignObject returns a shared object of a pairing none of whose sites
// is in file name.
func foreignObject(t *testing.T, res *ofence.Result, name string) ofence.ObjectView {
	t.Helper()
	for _, pv := range res.View().Pairings {
		if slices.ContainsFunc(pv.Sites, func(s ofence.SiteView) bool { return s.File == name }) {
			continue
		}
		return pv.Common[0]
	}
	t.Fatalf("every pairing has a site in %s", name)
	return ofence.ObjectView{}
}

// verdictFP is the part of the options fingerprint the check and rank
// record is valid under: everything but the MinConfidence gate.
func verdictFP(opts ofence.Options) string {
	opts.MinConfidence = 0
	return opts.Fingerprint()
}

// TestIncrementalVerdictsDifferential drives seeded edit sequences over a
// generated tree from depths 0 and 1 — literal edits, structural edits
// (a new barrier or function) and object edits (a new site on another
// file's pairing object, every other time with new objects) — and flips an
// option for two of every eight steps: CheckOnce, MinConfidence,
// GenericStructs, MinSharedObjects and the depth. After every warm run the -json output must equal a cold run's; a
// literal edit under an unchanged record fingerprint must re-check at most
// 4 pairings, and every run's counters must account for all its pairings
// and findings.
func TestIncrementalVerdictsDifferential(t *testing.T) {
	tr := sitegen.GenerateTree(sitegen.DefaultTreeSpec(24, 7))
	names := make([]string, len(tr.Files))
	for i, f := range tr.Files {
		names[i] = f.Name
	}
	for _, depth := range []int{0, 1} {
		t.Run(fmt.Sprintf("depth%d", depth), func(t *testing.T) {
			opts := ofence.DefaultOptions()
			opts.InterprocDepth = depth
			opts.Workers = 2
			warm := ofence.NewProject()
			loadTree(warm, tr)
			res := mustAnalyze(t, warm, opts)
			generic := foreignObject(t, res, "").Struct
			flips := []func(o *ofence.Options){
				func(o *ofence.Options) { o.CheckOnce = !o.CheckOnce },
				func(o *ofence.Options) { o.MinConfidence = rank.DefaultThreshold - o.MinConfidence },
				func(o *ofence.Options) {
					if slices.Contains(o.GenericStructs, generic) {
						o.GenericStructs = ofence.DefaultOptions().GenericStructs
					} else {
						o.GenericStructs = append(slices.Clone(o.GenericStructs), generic)
					}
				},
				func(o *ofence.Options) { o.MinSharedObjects = 3 - o.MinSharedObjects },
				func(o *ofence.Options) { o.InterprocDepth = 1 - o.InterprocDepth },
			}
			edited := map[string]string{}
			src := func(name string) string {
				if s, ok := edited[name]; ok {
					return s
				}
				return tr.Files[slices.Index(names, name)].Src
			}
			rng := rand.New(rand.NewSource(int64(depth) + 11))
			for step := 0; step < 40; step++ {
				// Each flip is a toggle, on for two steps of every eight.
				before := verdictFP(opts)
				if step%8 == 6 {
					flips[(step/8)%len(flips)](&opts)
				} else if step%8 == 0 && step > 0 {
					flips[(step/8-1)%len(flips)](&opts)
				}
				name := names[rng.Intn(len(names))]
				kind := "literal"
				switch step % 6 {
				case 2:
					kind = "structural"
					edited[name] = structuralEdit(t, step, src(name))
				case 4, 5:
					kind = "object"
					edited[name] = objectEdit(step, src(name), foreignObject(t, res, name), step%6 == 5)
				default:
					edited[name] = literalEdit(t, rng, src(name))
				}
				warm.ReplaceSource(name, edited[name])
				tracer := obs.New()
				var err error
				res, err = warm.AnalyzeParallel(obs.WithTracer(context.Background(), tracer), opts)
				if err != nil {
					t.Fatal(err)
				}
				checked := spanCounter(t, tracer, "check", "pairings_checked")
				if kind == "literal" && verdictFP(opts) == before && checked > 4 {
					t.Errorf("step %d (literal edit of %s): %d pairings checked, want at most 4", step, name, checked)
				}
				if got := checked + spanCounter(t, tracer, "check", "pairings_reused"); got != int64(len(res.Pairings)) {
					t.Errorf("step %d: %d pairings checked or reused, result has %d", step, got, len(res.Pairings))
				}
				ranked := spanCounter(t, tracer, "rank", "ranked")
				if got := spanCounter(t, tracer, "rank", "findings_rescored") + spanCounter(t, tracer, "rank", "findings_reused"); got != ranked {
					t.Errorf("step %d: %d findings rescored or reused, %d ranked", step, got, ranked)
				}

				cold := ofence.NewProject()
				loadTree(cold, tr)
				for n, s := range edited {
					cold.ReplaceSource(n, s)
				}
				if w, c := viewJSON(t, res), viewJSON(t, mustAnalyze(t, cold, opts)); w != c {
					t.Fatalf("step %d (%s edit of %s, options %s): warm output differs from cold", step, kind, name, opts.Fingerprint())
				}
			}
		})
	}
}

// TestVerdictsCopyOnWrite re-scores findings an earlier result shares: an
// object edit in one file moves the census row of an object of another
// file's pairing, whose findings are reused and re-scored. The earlier
// result must serialize as it did, and the changed findings must be fresh
// values.
func TestVerdictsCopyOnWrite(t *testing.T) {
	tr := sitegen.GenerateTree(sitegen.DefaultTreeSpec(16, 5))
	opts := ofence.DefaultOptions()
	opts.Workers = 2
	p := ofence.NewProject()
	loadTree(p, tr)
	res1 := mustAnalyze(t, p, opts)
	before, err := json.Marshal(res1.View())
	if err != nil {
		t.Fatal(err)
	}

	f := tr.Files[0]
	p.ReplaceSource(f.Name, objectEdit(1, f.Src, foreignObject(t, res1, f.Name), false))
	tracer := obs.New()
	res2, err := p.AnalyzeParallel(obs.WithTracer(context.Background(), tracer), opts)
	if err != nil {
		t.Fatal(err)
	}
	after, err := json.Marshal(res1.View())
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(before) {
		t.Fatal("re-analysis changed an earlier result")
	}

	// Some finding of a reused pairing must have changed its score, as a
	// new value in the new result.
	reusedPairing := map[*ofence.Pairing]bool{}
	for _, pg := range res1.Pairings {
		reusedPairing[pg] = true
	}
	type key struct {
		pos, kind, obj, expl string
	}
	keyOf := func(f *ofence.Finding) key {
		return key{f.Site.Pos.String(), f.Kind.String(), f.Object.String(), f.Explanation}
	}
	old := map[key]*ofence.Finding{}
	for _, f := range res1.Findings {
		old[keyOf(f)] = f
	}
	moved := 0
	for _, f := range res2.Findings {
		o := old[keyOf(f)]
		if o == nil || !reusedPairing[f.Pairing] {
			continue
		}
		if o.Confidence != f.Confidence {
			moved++
			if o == f {
				t.Errorf("%s: score changed in place", f)
			}
		} else if o != f {
			t.Errorf("%s: unchanged finding of a reused pairing was copied", f)
		}
	}
	if moved == 0 {
		t.Fatal("the edit re-scored no shared finding; the test lost its subject")
	}
	if spanCounter(t, tracer, "rank", "findings_rescored") == 0 {
		t.Error("findings_rescored = 0 after a census change")
	}
}

// TestCloneSharesVerdictRecord analyzes a project and two clones
// concurrently after each took a different edit — a literal edit, a
// structural edit and an object edit — and checks every run against a cold
// analysis. All three start from the one record the original published;
// run under -race by the CI race job.
func TestCloneSharesVerdictRecord(t *testing.T) {
	tr := sitegen.GenerateTree(sitegen.DefaultTreeSpec(16, 5))
	opts := ofence.DefaultOptions()
	opts.Workers = 2
	base := ofence.NewProject()
	loadTree(base, tr)
	res := mustAnalyze(t, base, opts)

	rng := rand.New(rand.NewSource(4))
	projects := []*ofence.Project{base, base.Clone(), base.Clone()}
	edits := make([]map[string]string, len(projects))
	for i := range edits {
		f := tr.Files[i*5]
		var s string
		switch i {
		case 0:
			s = literalEdit(t, rng, f.Src)
		case 1:
			s = structuralEdit(t, 0, f.Src)
		default:
			s = objectEdit(i, f.Src, foreignObject(t, res, f.Name), true)
		}
		edits[i] = map[string]string{f.Name: s}
		projects[i].ReplaceSource(f.Name, s)
	}

	results := make([]*ofence.Result, len(projects))
	var wg sync.WaitGroup
	for i, p := range projects {
		wg.Add(1)
		go func(i int, p *ofence.Project) {
			defer wg.Done()
			res, err := p.AnalyzeParallel(context.Background(), opts)
			if err != nil {
				t.Error(err)
			}
			results[i] = res
		}(i, p)
	}
	wg.Wait()
	for i, edit := range edits {
		if results[i] == nil {
			continue
		}
		cold := ofence.NewProject()
		loadTree(cold, tr)
		var edited []string
		for n, s := range edit {
			cold.ReplaceSource(n, s)
			edited = append(edited, n)
		}
		if viewJSON(t, results[i]) != viewJSON(t, mustAnalyze(t, cold, opts)) {
			t.Errorf("project %d (edited %s): output differs from a cold run", i, strings.Join(edited, ","))
		}
	}
}

// TestVerdictsFollowMovedIDs edits a project so that the object IDs move
// and one object's new census row equals the row its new ID had before:
// r0.x sorts before every s field, so s.a takes the old ID of s.b, and the
// edit's store to s.a gives s.a exactly the row s.b had. Comparing rows by
// ID would call s.a unchanged; its findings must be re-scored all the same.
func TestVerdictsFollowMovedIDs(t *testing.T) {
	const shared = `struct s { int a; int b; int c; };
struct r0 { int x; };
`
	srcs := []ofence.SourceFile{
		{Name: "mp.c", Src: shared + `
void w(struct s *p)
{
	p->a = 1;
	p->b = 1;
	smp_wmb();
	p->c = 1;
}

int r(struct s *p)
{
	if (!p->c)
		return 0;
	smp_rmb();
	return p->a + p->b;
}
`},
		{Name: "z.c", Src: shared + `
void z(struct s *p)
{
	p->b = 2;
	smp_mb();
}
`},
	}
	opts := ofence.DefaultOptions()
	p := ofence.NewProject()
	p.AddSources(srcs)
	mustAnalyze(t, p, opts)

	srcs[1].Src += `
void y(struct r0 *q, struct s *p)
{
	p->a = 2;
	smp_mb();
	q->x = 1;
}
`
	p.ReplaceSource(srcs[1].Name, srcs[1].Src)
	res := mustAnalyze(t, p, opts)
	if res.PairStats.InternerReused {
		t.Fatal("the edit kept the interner; the test lost its subject")
	}
	cold := ofence.NewProject()
	cold.AddSources(srcs)
	if viewJSON(t, res) != viewJSON(t, mustAnalyze(t, cold, opts)) {
		t.Error("warm output differs from cold after the object IDs moved")
	}
}

// TestVerdictsFollowMargins edits only the runner-up of a pairing's writer:
// r2 in b.c pairs with w2, yet also reads what w publishes, farther from
// its barrier than r does, so w pairs with r and r2 sets w's margin.
// Moving r2's reads farther away changes that margin and no census row;
// the kept findings of the w–r pairing must be re-scored.
func TestVerdictsFollowMargins(t *testing.T) {
	const shared = "struct s { int a; int b; int c; int d; };\n"
	srcs := []ofence.SourceFile{
		{Name: "a.c", Src: shared + `
void w(struct s *p)
{
	p->a = 1;
	smp_wmb();
	p->b = 1;
}

int r(struct s *p)
{
	if (!p->b)
		return 0;
	smp_rmb();
	return p->a;
}
`},
		{Name: "b.c", Src: shared + `
void w2(struct s *p)
{
	p->c = 1;
	smp_wmb();
	p->d = 1;
}

int r2(struct s *p)
{
	if (!p->d || !p->b)
		return 0;
	smp_rmb();
	tick();
	return p->c + p->a;
}
`},
	}
	opts := ofence.DefaultOptions()
	p := ofence.NewProject()
	p.AddSources(srcs)
	res1 := mustAnalyze(t, p, opts)

	srcs[1].Src = strings.Replace(srcs[1].Src, "\ttick();\n", "\ttick();\n\ttick();\n\ttick();\n", 1)
	p.ReplaceSource(srcs[1].Name, srcs[1].Src)
	tracer := obs.New()
	res2, err := p.AnalyzeParallel(obs.WithTracer(context.Background(), tracer), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Pairings) != 2 || res2.Pairings[0] != res1.Pairings[0] {
		t.Fatal("the w–r pairing was not kept; the test lost its subject")
	}
	if got := spanCounter(t, tracer, "rank", "findings_rescored"); got == 0 {
		t.Error("findings_rescored = 0 after the writer's margin moved")
	}
	cold := ofence.NewProject()
	cold.AddSources(srcs)
	if viewJSON(t, res2) != viewJSON(t, mustAnalyze(t, cold, opts)) {
		t.Error("warm output differs from cold after the writer's margin moved")
	}
}
