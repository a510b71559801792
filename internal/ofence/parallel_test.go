package ofence

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ofence/internal/obs"
)

// parallelTestSrc holds a pairing with a misplaced-access deviation plus an
// unneeded barrier, so every checker path produces output.
const parallelTestSrc = `
struct ps { int flag; int data; struct task_struct *task; };
void pw(struct ps *p) {
	p->data = 1;
	smp_wmb();
	p->flag = 1;
}
void pr(struct ps *p) {
	smp_rmb();
	if (!p->flag)
		return;
	use(p->data);
}
int pu(struct ps *p) {
	p->data = 2;
	smp_wmb();
	wake_up_process(p->task);
	return 1;
}`

func newParallelTestProject(t *testing.T) *Project {
	t.Helper()
	p := NewProject()
	p.AddSource("p.c", parallelTestSrc)
	return p
}

// viewEqual compares two results through their stable JSON projection.
func viewEqual(t *testing.T, a, b *Result) {
	t.Helper()
	aj, err := json.Marshal(a.View())
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.Marshal(b.View())
	if err != nil {
		t.Fatal(err)
	}
	if string(aj) != string(bj) {
		t.Fatalf("results differ:\n%s\nvs\n%s", aj, bj)
	}
}

// mustAnalyze runs AnalyzeParallel under a background context and fails
// the test on error.
func mustAnalyze(tb testing.TB, p *Project, opts Options) *Result {
	tb.Helper()
	res, err := p.AnalyzeParallel(context.Background(), opts)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

func TestAnalyzeParallelMatchesSequential(t *testing.T) {
	one := DefaultOptions()
	one.Workers = 1
	seq := mustAnalyze(t, newParallelTestProject(t), one)

	opts := DefaultOptions()
	opts.Workers = 4
	par := mustAnalyze(t, newParallelTestProject(t), opts)
	if len(seq.Findings) == 0 {
		t.Fatal("test source produced no findings")
	}
	viewEqual(t, seq, par)
}

// parallelTestSources returns n copies of parallelTestSrc, each with its
// own struct tag, so every file forms its own pairing.
func parallelTestSources(n int) []SourceFile {
	srcs := make([]SourceFile, n)
	for i := range srcs {
		srcs[i] = SourceFile{
			Name: fmt.Sprintf("f%d.c", i),
			Src:  strings.ReplaceAll(parallelTestSrc, "ps", fmt.Sprintf("ps%d", i)),
		}
	}
	return srcs
}

// cancelAfter is a context that cancels itself on its k-th Err check, so a
// test lands a cancel at a fixed point of a run without timing.
type cancelAfter struct {
	context.Context
	cancel context.CancelFunc
	left   atomic.Int64
}

func newCancelAfter(k int) *cancelAfter {
	ctx, cancel := context.WithCancel(context.Background())
	c := &cancelAfter{Context: ctx, cancel: cancel}
	c.left.Store(int64(k))
	return c
}

func (c *cancelAfter) Err() error {
	if c.left.Add(-1) <= 0 {
		c.cancel() // idempotent; every check from the k-th on sees it
	}
	return c.Context.Err()
}

// waitGoroutines waits until the goroutine count is back at base, failing
// with every goroutine's stack if it is not within a few seconds.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines, baseline %d:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		runtime.Gosched()
	}
}

func TestAnalyzeParallelCanceledContext(t *testing.T) {
	p := newParallelTestProject(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := p.AnalyzeParallel(ctx, DefaultOptions())
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Error("canceled analysis returned a result")
	}
	// The project must recover: a fresh call succeeds and re-extracts
	// whatever the canceled run skipped.
	res, err = p.AnalyzeParallel(context.Background(), DefaultOptions())
	if err != nil || len(res.Pairings) == 0 {
		t.Fatalf("post-cancel analysis: res=%v err=%v", res, err)
	}

	// A cancel landing partway through the front end of freshly recorded
	// sources. Each pending file checks the context before its front end
	// runs (in the depth-0 pipeline or the depth-1 refresh barrier) and
	// inside it, so the k-th check stops every file not through by then,
	// and the first stops them all.
	srcs := parallelTestSources(8)
	for _, depth := range []int{0, 1} {
		opts := DefaultOptions()
		opts.InterprocDepth = depth
		opts.Workers = 3
		cold := NewProject()
		cold.AddSources(srcs)
		want := mustAnalyze(t, cold, opts)
		for _, k := range []int{1, 4, len(srcs)} {
			t.Run(fmt.Sprintf("depth%d/check%d", depth, k), func(t *testing.T) {
				base := runtime.NumGoroutine()
				p := NewProject()
				p.AddSources(srcs)
				if _, err := p.AnalyzeParallel(newCancelAfter(k), opts); err != context.Canceled {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
				waitGoroutines(t, base)
				pending := 0
				for _, fu := range p.Files() {
					if fu.stale || fu.art == nil || fu.art.extractFP == "" {
						pending++
					}
				}
				if k == 1 && pending != len(srcs) {
					t.Errorf("%d files pending after the first check canceled, want %d", pending, len(srcs))
				}
				res := mustAnalyze(t, p, opts)
				viewEqual(t, want, res)
				if depth == 0 {
					// The files that got through were parsed and
					// extracted; the next run does only the rest.
					if got := res.Incremental.FilesRecomputed; got != pending {
						t.Errorf("next run recomputed %d files, want the %d pending", got, pending)
					}
				}
			})
		}
	}
}

// errCounter is a context that counts its Err calls and is never canceled.
type errCounter struct {
	context.Context
	n atomic.Int64
}

func (c *errCounter) Err() error {
	c.n.Add(1)
	return nil
}

// phaseChecks analyzes p under a tracer whose clock reads the number of
// context checks made so far, and returns how many checks the run made
// before the span called phase and how many inside it, and the span.
func phaseChecks(t *testing.T, p *Project, opts Options, phase string) (before, inside int, sp *obs.Span) {
	t.Helper()
	c := &errCounter{Context: context.Background()}
	tr := obs.New(obs.WithClock(func() time.Time { return time.Unix(0, c.n.Load()) }))
	if _, err := p.AnalyzeParallel(obs.WithTracer(c, tr), opts); err != nil {
		t.Fatal(err)
	}
	for _, sp := range tr.Spans() {
		if sp.Name() == phase {
			d, _ := sp.Elapsed()
			return int(sp.StartTime().UnixNano()), int(d), sp
		}
	}
	t.Fatalf("no %s span", phase)
	return 0, 0, nil
}

// spanCount returns counter name of span sp, or 0.
func spanCount(sp *obs.Span, name string) int {
	for _, c := range sp.Counters() {
		if c.Name == name {
			return int(c.Value)
		}
	}
	return 0
}

// lastPhase returns the name of the last span under the analyze span.
func lastPhase(tr *obs.Tracer) string {
	var last string
	for _, sp := range tr.Spans() {
		if sp.Parent() != nil && sp.Parent().Name() == "analyze" {
			last = sp.Name()
		}
	}
	return last
}

// TestCancelInCheckAndRank lands a cancel inside the check phase and
// another inside the rank phase of a warm run after a one-file edit. Each
// run must return the context's error, leave no goroutine behind and
// publish nothing, and the next run must equal a cold one.
func TestCancelInCheckAndRank(t *testing.T) {
	srcs := parallelTestSources(8)
	edited := append([]SourceFile(nil), srcs...)
	edited[3].Src = strings.Replace(edited[3].Src, "p->data = 1;", "p->data = 7;", 1)
	for _, depth := range []int{0, 1} {
		opts := DefaultOptions()
		opts.InterprocDepth = depth
		opts.Workers = 3
		cold := NewProject()
		cold.AddSources(edited)
		want := mustAnalyze(t, cold, opts)
		warm := func() *Project {
			p := NewProject()
			p.AddSources(srcs)
			mustAnalyze(t, p, opts)
			p.ReplaceSource(edited[3].Name, edited[3].Src)
			return p
		}
		for _, phase := range []string{"check", "rank"} {
			t.Run(fmt.Sprintf("depth%d/%s", depth, phase), func(t *testing.T) {
				before, inside, _ := phaseChecks(t, warm(), opts, phase)
				if inside == 0 {
					t.Fatalf("the %s phase made no context check", phase)
				}
				p := warm()
				last := p.last
				base := runtime.NumGoroutine()
				tr := obs.New()
				ctx := obs.WithTracer(newCancelAfter(before+(inside+1)/2), tr)
				if _, err := p.AnalyzeParallel(ctx, opts); err != context.Canceled {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
				waitGoroutines(t, base)
				if last := lastPhase(tr); last != phase {
					t.Errorf("the canceled run's last phase was %q, want %q", last, phase)
				}
				if p.last != last {
					t.Error("a canceled run published its run record")
				}
				viewEqual(t, want, mustAnalyze(t, p, opts))
			})
		}
	}
}

// TestCancelInPair lands a cancel inside the candidate search and another
// inside the handshake of a warm run after a one-file edit, at depths 0
// and 1. The search checks ctx before each writer it searches and the
// handshake on its first site, so the k-th check of the pair span is the
// k-th writer's while k <= writers_searched and the handshake's after.
// Each run must return the context's error, leave no goroutine behind and
// publish no site table, pair record or verdicts, and the next run must
// equal a cold one.
func TestCancelInPair(t *testing.T) {
	srcs := parallelTestSources(8)
	edited := append([]SourceFile(nil), srcs...)
	edited[3].Src = strings.Replace(edited[3].Src, "p->data = 1;", "p->data = 7;", 1)
	for _, depth := range []int{0, 1} {
		opts := DefaultOptions()
		opts.InterprocDepth = depth
		opts.Workers = 3
		cold := NewProject()
		cold.AddSources(edited)
		want := mustAnalyze(t, cold, opts)
		warm := func() *Project {
			p := NewProject()
			p.AddSources(srcs)
			mustAnalyze(t, p, opts)
			p.ReplaceSource(edited[3].Name, edited[3].Src)
			return p
		}
		before, inside, sp := phaseChecks(t, warm(), opts, "pair")
		searched := spanCount(sp, "writers_searched")
		if searched == 0 || inside <= searched {
			t.Fatalf("depth %d: %d writers searched, %d checks in pair; the edit lost its subject", depth, searched, inside)
		}
		for _, at := range []struct {
			name string
			k    int
		}{{"search", before + 1}, {"handshake", before + searched + 1}} {
			t.Run(fmt.Sprintf("depth%d/%s", depth, at.name), func(t *testing.T) {
				p := warm()
				last := p.last
				base := runtime.NumGoroutine()
				tr := obs.New()
				if _, err := p.AnalyzeParallel(obs.WithTracer(newCancelAfter(at.k), tr), opts); err != context.Canceled {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
				waitGoroutines(t, base)
				if last := lastPhase(tr); last != "pair" {
					t.Errorf("the canceled run's last phase was %q, want pair", last)
				}
				if p.last != last {
					t.Error("a canceled run published its run record")
				}
				viewEqual(t, want, mustAnalyze(t, p, opts))
			})
		}
	}
}

func TestAnalyzeParallelDeadline(t *testing.T) {
	p := newParallelTestProject(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := p.AnalyzeParallel(ctx, DefaultOptions()); err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestConcurrentAnalyzeIndependentProjects is the race-detector audit for
// hidden shared state: many goroutines analyze independent projects (and
// clones of one project) at once.
func TestConcurrentAnalyzeIndependentProjects(t *testing.T) {
	base := newParallelTestProject(t)
	want := mustAnalyze(t, base.Clone(), DefaultOptions())

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var p *Project
			if g%2 == 0 {
				p = newParallelTestProject(t) // independent project
			} else {
				p = base.Clone() // clone sharing immutable ASTs
			}
			res, err := p.AnalyzeParallel(context.Background(), DefaultOptions())
			if err != nil {
				t.Errorf("goroutine %d: %v", g, err)
				return
			}
			if len(res.Findings) != len(want.Findings) || len(res.Pairings) != len(want.Pairings) {
				t.Errorf("goroutine %d: findings %d pairings %d, want %d/%d",
					g, len(res.Findings), len(res.Pairings), len(want.Findings), len(want.Pairings))
			}
		}(g)
	}
	wg.Wait()
}

// TestConcurrentAnalyzeSameProject exercises the internal serialization:
// concurrent AnalyzeParallel calls on ONE project must not race on the
// extraction cache and must each return complete results.
func TestConcurrentAnalyzeSameProject(t *testing.T) {
	p := newParallelTestProject(t)
	want := len(mustAnalyze(t, p, DefaultOptions()).Findings)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := p.AnalyzeParallel(context.Background(), DefaultOptions())
			if err != nil {
				t.Error(err)
				return
			}
			if got := len(res.Findings); got != want {
				t.Errorf("findings = %d, want %d", got, want)
			}
		}()
	}
	wg.Wait()
}

func TestAddSourcesDeterministicOrder(t *testing.T) {
	srcs := []SourceFile{
		{Name: "z.c", Src: "struct a { int x; };"},
		{Name: "a.c", Src: "struct b { int y; };"},
		{Name: "m.c", Src: "struct c { int z; };"},
	}
	for round := 0; round < 3; round++ {
		p := NewProject()
		p.AddSources(srcs)
		if got := len(p.Files()); got != len(srcs) {
			t.Fatalf("units = %d", got)
		}
		for i, fu := range p.Files() {
			if fu.Name != srcs[i].Name {
				t.Errorf("round %d: file %d = %s, want %s", round, i, fu.Name, srcs[i].Name)
			}
		}
	}
}

func TestCloneSharesArtifactsCopyOnWrite(t *testing.T) {
	p := newParallelTestProject(t)
	p.AddSource("q.c", `
struct qs { int seq; int val; };
void qw(struct qs *q) {
	q->val = 7;
	smp_wmb();
	q->seq = 1;
}
void qr(struct qs *q) {
	int s = q->seq;
	smp_rmb();
	use(q->val, s);
}`)
	mustAnalyze(t, p, DefaultOptions())

	// The clone inherits the originals' immutable artifacts: re-analyzing
	// the identical file set is pure cache replay.
	c := p.Clone()
	res := mustAnalyze(t, c, DefaultOptions())
	if got := res.Incremental; got.FilesReused != 2 || got.FilesRecomputed != 0 {
		t.Fatalf("clone replay: reused=%d recomputed=%d, want 2/0", got.FilesReused, got.FilesRecomputed)
	}

	// Editing one file in the clone recomputes exactly that file; the
	// sibling's artifacts are served as is.
	c.ReplaceSource("q.c", `
struct qs { int seq; int val; };
void qw(struct qs *q) {
	q->val = 9;
	smp_wmb();
	q->seq = 2;
}`)
	res = mustAnalyze(t, c, DefaultOptions())
	if got := res.Incremental; got.FilesReused != 1 || got.FilesRecomputed != 1 {
		t.Fatalf("clone after edit: reused=%d recomputed=%d, want 1/1", got.FilesReused, got.FilesRecomputed)
	}

	// Copy-on-write: the clone's mutation never disturbs the original.
	res = mustAnalyze(t, p, DefaultOptions())
	if len(res.Pairings) == 0 {
		t.Error("original project affected by clone mutation")
	}
	if got := res.Incremental; got.FilesReused != 2 || got.FilesRecomputed != 0 {
		t.Errorf("original replay: reused=%d recomputed=%d, want 2/0", got.FilesReused, got.FilesRecomputed)
	}
}

// TestDeadlineInsideFile analyzes a project holding a file whose macros
// double 22 times under a 50 ms deadline. The preprocessor polls the
// context inside the file, so the run must return
// context.DeadlineExceeded well before the file's work budget is spent,
// leave no goroutine behind, give the unit no record and leave it stale,
// and publish no run record; a run without a deadline then gives the budget
// diagnostic.
func TestDeadlineInsideFile(t *testing.T) {
	var b strings.Builder
	b.WriteString("#define m0 x\n")
	for i := 1; i <= 22; i++ {
		fmt.Fprintf(&b, "#define m%d m%d m%d\n", i, i-1, i-1)
	}
	b.WriteString("int f(void) { m22; }\n")
	p := NewProject()
	fu := p.AddSource("doubling.c", b.String())
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := p.AnalyzeParallel(ctx, DefaultOptions())
	took := time.Since(start)
	if err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if took > 150*time.Millisecond {
		t.Errorf("the run returned after %v, want within 150ms", took)
	}
	waitGoroutines(t, base)
	if !fu.stale || fu.art != nil {
		t.Error("the canceled file's unit is not stale")
	}
	if p.last != emptyRun {
		t.Error("the canceled run published a run record")
	}
	res := mustAnalyze(t, p, DefaultOptions())
	if len(res.ParseErrors) != 1 || !strings.Contains(res.ParseErrors[0].Error(), "file skipped") {
		t.Errorf("parse errors %v, want the budget diagnostic", res.ParseErrors)
	}
}
