package ofence

import (
	"context"
	"testing"

	"ofence/internal/obs"
)

const incWriter = `
struct inc_s { int flag; int data; };
void inc_w(struct inc_s *p) {
	p->data = 1;
	smp_wmb();
	p->flag = 1;
}`

const incReaderBuggy = `
struct inc_s { int flag; int data; };
void inc_r(struct inc_s *p) {
	smp_rmb();
	if (!p->flag)
		return;
	use(p->data);
}`

const incReaderFixed = `
struct inc_s { int flag; int data; };
void inc_r(struct inc_s *p) {
	if (!p->flag)
		return;
	smp_rmb();
	use(p->data);
}`

func TestReplaceSourceIncremental(t *testing.T) {
	p := NewProject()
	p.AddSource("w.c", incWriter)
	p.AddSource("r.c", incReaderBuggy)
	opts := DefaultOptions()

	res1 := mustAnalyze(t, p, opts)
	if len(res1.Pairings) != 1 {
		t.Fatalf("pairings = %d", len(res1.Pairings))
	}
	found := false
	for _, f := range res1.Findings {
		if f.Kind == MisplacedAccess {
			found = true
		}
	}
	if !found {
		t.Fatal("buggy reader not flagged")
	}

	// Fix only the reader; the writer's extraction must be reused.
	writerUnitBefore := p.Files()[0]
	if fu := p.ReplaceSource("r.c", incReaderFixed); fu == nil {
		t.Fatal("ReplaceSource returned nil")
	}
	res2 := mustAnalyze(t, p, opts)
	if len(res2.Pairings) != 1 {
		t.Fatalf("pairings after fix = %d", len(res2.Pairings))
	}
	for _, f := range res2.Findings {
		if f.Kind == MisplacedAccess {
			t.Errorf("fixed reader still flagged: %v", f)
		}
	}
	// Same pointer = cache reused (the unit was not re-extracted).
	if p.Files()[0] != writerUnitBefore {
		t.Error("unchanged file was replaced")
	}
	if p.Files()[0].Table == nil {
		t.Error("cached extraction lost")
	}
}

func TestReplaceSourceUnknownFile(t *testing.T) {
	p := NewProject()
	p.AddSource("a.c", incWriter)
	if fu := p.ReplaceSource("nope.c", "int x;"); fu != nil {
		t.Error("replacing unknown file should return nil")
	}
}

// TestReplaceSourceIdenticalIsNoop: replacing a file with its own raw
// source keeps the unit, and the next run does no per-file work at all.
func TestReplaceSourceIdenticalIsNoop(t *testing.T) {
	p := NewProject()
	p.AddSource("w.c", incWriter)
	p.AddSource("r.c", incReaderBuggy)
	opts := DefaultOptions()
	mustAnalyze(t, p, opts)

	before := p.Files()[1]
	if fu := p.ReplaceSource("r.c", incReaderBuggy); fu != before {
		t.Error("identical source replaced the unit")
	}
	tracer := obs.New()
	res, err := p.AnalyzeParallel(obs.WithTracer(context.Background(), tracer), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Incremental.FilesRecomputed; got != 0 {
		t.Errorf("recomputed %d files, want 0", got)
	}
	for _, sp := range tracer.Spans() {
		if sp.Name() == "parse" || sp.Name() == "preprocess" {
			t.Errorf("identical source ran the front end (%s span)", sp.Name())
		}
	}
}

// TestReplaceSourceDuringAnalysis races ReplaceSource against an in-flight
// AnalyzeParallel on the same project (run under -race by make race). The
// in-flight run sees the old sources or the new ones, never a mix, and the
// next run sees the new ones.
func TestReplaceSourceDuringAnalysis(t *testing.T) {
	opts := DefaultOptions()
	opts.Workers = 4
	srcs := parallelTestSources(8)
	edited := append([]SourceFile(nil), srcs...)
	edited[3].Src += "\nvoid pw_extra(struct ps3 *p) {\n\tp->data = 3;\n\tsmp_wmb();\n\tp->flag = 3;\n}\n"
	cold := func(srcs []SourceFile) string {
		p := NewProject()
		p.AddSources(srcs)
		return resultJSON(t, mustAnalyze(t, p, opts))
	}
	oldJSON, newJSON := cold(srcs), cold(edited)
	if oldJSON == newJSON {
		t.Fatal("the edit does not change the result")
	}
	for round := 0; round < 8; round++ {
		p := NewProject()
		p.AddSources(srcs)
		if round%2 == 1 {
			mustAnalyze(t, p, opts) // warm: the replaced unit has records
		}
		type outcome struct {
			res *Result
			err error
		}
		held := p.Files()[3]
		done := make(chan outcome)
		go func() {
			res, err := p.AnalyzeParallel(context.Background(), opts)
			done <- outcome{res, err}
		}()
		if fu := p.ReplaceSource(edited[3].Name, edited[3].Src); fu == held {
			t.Error("ReplaceSource changed a unit an in-flight run may hold")
		}
		out := <-done
		if out.err != nil {
			t.Fatal(out.err)
		}
		if got := resultJSON(t, out.res); got != oldJSON && got != newJSON {
			t.Errorf("round %d: in-flight result mixes old and new sources:\n%s", round, got)
		}
		if got := resultJSON(t, mustAnalyze(t, p, opts)); got != newJSON {
			t.Errorf("round %d: next run differs from a cold run of the new sources", round)
		}
	}
}

// TestAddSourcesRepeatedName: file names are unique. A repeated name keeps
// its first position and its last source, so the project analyzes like one
// built from each file once.
func TestAddSourcesRepeatedName(t *testing.T) {
	once := NewProject()
	once.AddSources([]SourceFile{{Name: "w.c", Src: incWriter}, {Name: "r.c", Src: incReaderBuggy}})
	want := resultJSON(t, mustAnalyze(t, once, DefaultOptions()))

	p := NewProject()
	p.AddSources([]SourceFile{
		{Name: "w.c", Src: incWriter},
		{Name: "r.c", Src: incReaderFixed},
		{Name: "w.c", Src: incWriter},
		{Name: "r.c", Src: incReaderBuggy},
	})
	p.AddSource("w.c", incWriter)
	var names []string
	for _, fu := range p.Files() {
		names = append(names, fu.Name)
	}
	if len(names) != 2 || names[0] != "w.c" || names[1] != "r.c" {
		t.Fatalf("files = %v, want [w.c r.c]", names)
	}
	if got := resultJSON(t, mustAnalyze(t, p, DefaultOptions())); got != want {
		t.Errorf("repeated names analyze differently:\n%s\nvs\n%s", got, want)
	}
}

func TestOptionsChangeInvalidatesCache(t *testing.T) {
	p := NewProject()
	p.AddSource("w.c", incWriter)
	p.AddSource("r.c", incReaderBuggy)
	opts := DefaultOptions()
	res1 := mustAnalyze(t, p, opts)
	if len(res1.Pairings) != 1 {
		t.Fatalf("pairings = %d", len(res1.Pairings))
	}
	// Shrinking the write window to zero must recompute extraction and
	// eliminate the pairing.
	opts2 := DefaultOptions()
	opts2.Access.WriteWindow = 0
	res2 := mustAnalyze(t, p, opts2)
	if len(res2.Pairings) != 0 {
		t.Errorf("stale cache: pairings = %d with zero window", len(res2.Pairings))
	}
	// And going back re-finds it.
	res3 := mustAnalyze(t, p, DefaultOptions())
	if len(res3.Pairings) != 1 {
		t.Errorf("pairings = %d after options restored", len(res3.Pairings))
	}
}

func TestRepeatedAnalyzeIsStable(t *testing.T) {
	p := NewProject()
	p.AddSource("w.c", incWriter)
	p.AddSource("r.c", incReaderBuggy)
	opts := DefaultOptions()
	res1 := mustAnalyze(t, p, opts)
	res2 := mustAnalyze(t, p, opts) // fully cached second run
	if len(res1.Pairings) != len(res2.Pairings) || len(res1.Findings) != len(res2.Findings) {
		t.Errorf("cached run differs: %d/%d vs %d/%d",
			len(res1.Pairings), len(res1.Findings), len(res2.Pairings), len(res2.Findings))
	}
}

func TestTimingPopulated(t *testing.T) {
	p := NewProject()
	p.AddSource("w.c", incWriter)
	p.AddSource("r.c", incReaderBuggy)
	res := mustAnalyze(t, p, DefaultOptions())
	if res.Timing.Extract <= 0 || res.Timing.Pair <= 0 || res.Timing.Check <= 0 {
		t.Errorf("timing not populated: %+v", res.Timing)
	}
	// Cached re-run: extraction is near-free but still measured.
	res2 := mustAnalyze(t, p, DefaultOptions())
	if res2.Timing.Extract > res.Timing.Extract*10 {
		t.Errorf("cached extract slower than fresh: %v vs %v", res2.Timing.Extract, res.Timing.Extract)
	}
}
