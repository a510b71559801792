package ofence

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"ofence/internal/obs"
)

// tableTestSrc is one file of the site-table fixture: a message-passing
// writer and reader, a wake-up writer, and an object (extra) that only the
// wake-up writer touches. Each file renames the struct, so every file owns
// its objects.
const tableTestSrc = `
struct ts { int flag; int data; int extra; struct task_struct *task; };
void tw(struct ts *p) {
	p->data = 1;
	smp_wmb();
	p->flag = 1;
}
void tr(struct ts *p) {
	smp_rmb();
	if (!p->flag)
		return;
	use(p->data);
}
int tu(struct ts *p) {
	p->extra = 5;
	p->data = 2;
	smp_wmb();
	wake_up_process(p->task);
	return 1;
}`

// tableTestSources returns the fixture's eight files.
func tableTestSources() []SourceFile {
	srcs := make([]SourceFile, 8)
	for i := range srcs {
		srcs[i] = SourceFile{
			Name: fmt.Sprintf("t%d.c", i),
			Src:  strings.ReplaceAll(tableTestSrc, "ts", fmt.Sprintf("ts%d", i)),
		}
	}
	return srcs
}

// withEdit returns srcs with file name's source passed through edit.
func withEdit(t *testing.T, srcs []SourceFile, name string, edit func(string) string) []SourceFile {
	t.Helper()
	out := append([]SourceFile(nil), srcs...)
	for i := range out {
		if out[i].Name == name {
			if next := edit(out[i].Src); next != out[i].Src {
				out[i].Src = next
				return out
			}
			t.Fatalf("edit left %s unchanged", name)
		}
	}
	t.Fatalf("no file %s", name)
	return nil
}

// analyzeCounted analyzes p under a fresh tracer and returns the result
// with the counters of its pair span.
func analyzeCounted(t *testing.T, p *Project, opts Options) (*Result, map[string]int64) {
	t.Helper()
	tracer := obs.New()
	res, err := p.AnalyzeParallel(obs.WithTracer(context.Background(), tracer), opts)
	if err != nil {
		t.Fatal(err)
	}
	counters := map[string]int64{}
	for _, sp := range tracer.Spans() {
		if sp.Name() == "pair" {
			for _, c := range sp.Counters() {
				counters[c.Name] = c.Value
			}
		}
	}
	return res, counters
}

// coldJSON is the serialized result of a fresh project over srcs.
func coldJSON(t *testing.T, srcs []SourceFile, opts Options) string {
	t.Helper()
	res, err := NewProject().AnalyzeSourcesCtx(context.Background(), srcs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return resultJSON(t, res)
}

// sitesIn counts the result's sites in one file.
func sitesIn(res *Result, file string) int64 {
	n := int64(0)
	for _, s := range res.Sites {
		if s.File == file {
			n++
		}
	}
	return n
}

// TestSiteTableEdits pins the carried site table's reuse rule on warm
// one-file edits: an edit that keeps the set of (struct, field) objects
// keeps the interner and re-vectorizes only the edited file's sites; an
// edit that adds or removes an object rebuilds the whole table. Whatever
// was reused, the warm result must serialize byte-identically to a cold
// analysis of the same sources, at depth 0 and 1.
func TestSiteTableEdits(t *testing.T) {
	cases := []struct {
		name   string
		file   string
		edit   func(string) string
		reused bool
	}{
		{"literal", "t3.c", func(s string) string {
			return strings.Replace(s, "p->data = 2;", "p->data = 3;", 1)
		}, true},
		{"new-field", "t3.c", func(s string) string {
			s = strings.Replace(s, "int extra;", "int extra; int fresh;", 1)
			return strings.Replace(s, "p->data = 1;", "p->data = 1;\n\tp->fresh = 1;", 1)
		}, false},
		{"last-access-removed", "t5.c", func(s string) string {
			return strings.Replace(s, "p->extra = 5;", "", 1)
		}, false},
	}
	for _, depth := range []int{0, 1} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/depth%d", tc.name, depth), func(t *testing.T) {
				opts := DefaultOptions()
				opts.InterprocDepth = depth
				srcs := tableTestSources()
				p := NewProject()
				if _, err := p.AnalyzeSourcesCtx(context.Background(), srcs, opts); err != nil {
					t.Fatal(err)
				}
				if _, c := analyzeCounted(t, p, opts); c["interner_reused"] != 1 || c["sites_vectorized"] != 0 {
					t.Fatalf("no-op rerun: pair counters %v, want interner_reused=1 sites_vectorized=0", c)
				}

				edited := withEdit(t, srcs, tc.file, tc.edit)
				for _, sf := range edited {
					if sf.Name == tc.file {
						p.ReplaceSource(sf.Name, sf.Src)
					}
				}
				res, c := analyzeCounted(t, p, opts)
				if tc.reused {
					if c["interner_reused"] != 1 || c["sites_vectorized"] != sitesIn(res, tc.file) {
						t.Errorf("pair counters %v, want interner_reused=1 sites_vectorized=%d (the edited file's sites)",
							c, sitesIn(res, tc.file))
					}
				} else if c["interner_reused"] != 0 || c["sites_vectorized"] != int64(len(res.Sites)) {
					t.Errorf("pair counters %v, want interner_reused=0 sites_vectorized=%d (every site)", c, len(res.Sites))
				}
				if got, want := resultJSON(t, res), coldJSON(t, edited, opts); got != want {
					t.Errorf("warm result differs from cold analysis:\n%s\nvs\n%s", got, want)
				}
			})
		}
	}
}

// TestSiteTableGenericChange pins that the carried vectors are keyed on the
// generic-struct filter: a second run of one project with a different
// filter re-vectorizes every site and matches a cold run under that filter.
func TestSiteTableGenericChange(t *testing.T) {
	srcs := tableTestSources()
	p := NewProject()
	if _, err := p.AnalyzeSourcesCtx(context.Background(), srcs, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.GenericStructs = append(opts.GenericStructs, "ts2")
	res, c := analyzeCounted(t, p, opts)
	if c["sites_vectorized"] != int64(len(res.Sites)) {
		t.Errorf("pair counters %v, want sites_vectorized=%d (every site)", c, len(res.Sites))
	}
	if got, want := resultJSON(t, res), coldJSON(t, srcs, opts); got != want {
		t.Errorf("result after a filter change differs from cold analysis:\n%s\nvs\n%s", got, want)
	}
}

// TestSiteTableCloneConcurrent edits a clone and its parent differently
// and analyzes both at once. The two share the published table they
// derive from; each must reuse it and match a cold analysis of its own
// sources.
func TestSiteTableCloneConcurrent(t *testing.T) {
	opts := DefaultOptions()
	opts.Workers = 4
	srcs := tableTestSources()
	parent := NewProject()
	if _, err := parent.AnalyzeSourcesCtx(context.Background(), srcs, opts); err != nil {
		t.Fatal(err)
	}
	clone := parent.Clone()

	bump := func(s string) string { return strings.Replace(s, "p->data = 2;", "p->data = 7;", 1) }
	projects := []*Project{parent, clone}
	edited := [][]SourceFile{withEdit(t, srcs, "t2.c", bump), withEdit(t, srcs, "t6.c", bump)}
	files := []string{"t2.c", "t6.c"}
	for i, p := range projects {
		for _, sf := range edited[i] {
			if sf.Name == files[i] {
				p.ReplaceSource(sf.Name, sf.Src)
			}
		}
	}

	results := make([]*Result, 2)
	counters := make([]map[string]int64, 2)
	var wg sync.WaitGroup
	for i, p := range projects {
		wg.Add(1)
		go func(i int, p *Project) {
			defer wg.Done()
			tracer := obs.New()
			res, err := p.AnalyzeParallel(obs.WithTracer(context.Background(), tracer), opts)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
			counters[i] = map[string]int64{}
			for _, sp := range tracer.Spans() {
				if sp.Name() == "pair" {
					for _, c := range sp.Counters() {
						counters[i][c.Name] = c.Value
					}
				}
			}
		}(i, p)
	}
	wg.Wait()
	for i, res := range results {
		if res == nil {
			t.Fatalf("project %d: no result", i)
		}
		if c := counters[i]; c["interner_reused"] != 1 || c["sites_vectorized"] != sitesIn(res, files[i]) {
			t.Errorf("project %d: pair counters %v, want interner_reused=1 sites_vectorized=%d", i, c, sitesIn(res, files[i]))
		}
		if got, want := resultJSON(t, res), coldJSON(t, edited[i], opts); got != want {
			t.Errorf("project %d: result differs from cold analysis:\n%s\nvs\n%s", i, got, want)
		}
	}
}

// TestDepthSwitchServesOwnSites pins that sites extracted at
// interprocedural depth never pass for depth-0 sites: a project analyzed
// at depth 0, then 1, then 0 again must match a cold depth-0 analysis.
func TestDepthSwitchServesOwnSites(t *testing.T) {
	p := interprocProject(t)
	d0, d1 := DefaultOptions(), DefaultOptions()
	d1.InterprocDepth = 1
	want := resultJSON(t, mustAnalyze(t, interprocProject(t), d0))
	mustAnalyze(t, p, d0)
	if got := resultJSON(t, mustAnalyze(t, p, d1)); got == want {
		t.Fatal("fixture is degenerate: depth 1 serializes like depth 0")
	}
	if got := resultJSON(t, mustAnalyze(t, p, d0)); got != want {
		t.Errorf("depth 0 after depth 1 differs from cold depth 0:\n%s\nvs\n%s", got, want)
	}
}
