package validate

import (
	"context"
	"testing"

	"ofence/internal/corpus"
	"ofence/internal/ofence"
)

func analyzeOne(t *testing.T, name, src string) *ofence.Result {
	t.Helper()
	p := ofence.NewProject()
	p.AddSource(name, src)
	res, err := p.AnalyzeParallel(context.Background(), ofence.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range res.ParseErrors {
		t.Fatalf("parse error: %v", err)
	}
	return res
}

func findingOf(t *testing.T, res *ofence.Result, kind ofence.FindingKind) *ofence.Finding {
	t.Helper()
	for _, f := range res.Findings {
		if f.Kind == kind {
			return f
		}
	}
	t.Fatalf("no %v finding: %v", kind, res.Findings)
	return nil
}

func fixtureSource(t *testing.T, name string) string {
	t.Helper()
	for _, fx := range corpus.Fixtures() {
		if fx.Name == name {
			return fx.Source
		}
	}
	t.Fatalf("fixture %s not found", name)
	return ""
}

func TestMisplacedConfirmed(t *testing.T) {
	res := analyzeOne(t, "rpc.c", fixtureSource(t, "rpc_xprt.c"))
	f := findingOf(t, res, ofence.MisplacedAccess)
	v, err := Check(f)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if !v.BadBefore {
		t.Error("bad state not observable in buggy code")
	}
	if v.BadAfter {
		t.Error("bad state survives the fix")
	}
	if !v.Confirmed {
		t.Errorf("not confirmed: %v", v)
	}
}

func TestRepeatedReadConfirmed(t *testing.T) {
	res := analyzeOne(t, "reuse.c", fixtureSource(t, "sock_reuseport.c"))
	f := findingOf(t, res, ofence.RepeatedRead)
	v, err := Check(f)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if !v.Confirmed {
		t.Errorf("repeated read not confirmed: %v", v)
	}
}

func TestWrongTypeConfirmed(t *testing.T) {
	src := `
struct s { int flag; int data; };
void w(struct s *p) {
	p->data = 1;
	smp_wmb();
	p->flag = 1;
}
void r(struct s *p) {
	if (!p->flag)
		return;
	smp_wmb();
	use(p->data);
}`
	res := analyzeOne(t, "wt.c", src)
	f := findingOf(t, res, ofence.WrongBarrierType)
	v, err := Check(f)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if !v.BadBefore {
		t.Error("wrong-type barrier should admit the bad state")
	}
	if v.BadAfter {
		t.Error("suggested barrier should forbid the bad state")
	}
	if !v.Confirmed {
		t.Errorf("not confirmed: %v", v)
	}
}

func TestUnneededConfirmed(t *testing.T) {
	res := analyzeOne(t, "qos.c", fixtureSource(t, "blk_rq_qos.c"))
	f := findingOf(t, res, ofence.UnneededBarrier)
	v, err := Check(f)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if !v.Confirmed {
		t.Errorf("barrier removal not confirmed safe: %v", v)
	}
}

func TestMissingOnceTearingModel(t *testing.T) {
	src := `
struct my_struct { int init; int y; };
void reader(struct my_struct *a) {
	if (!a->init)
		return;
	smp_rmb();
	f(a->y);
}
void writer(struct my_struct *b) {
	b->y = 1;
	smp_wmb();
	b->init = 1;
}`
	res := analyzeOne(t, "l1.c", src)
	f := findingOf(t, res, ofence.MissingOnce)
	v, err := Check(f)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	// The tearing model: the unannotated access admits a mixed observation;
	// the annotated one does not.
	if !v.BadBefore {
		t.Error("torn observation not reachable without annotation")
	}
	if v.BadAfter {
		t.Error("annotated access still tearable")
	}
	if !v.Confirmed {
		t.Errorf("annotation finding not confirmed: %v", v)
	}
}

func TestCheckAllOnCorpus(t *testing.T) {
	cfg := corpus.DefaultConfig(17)
	cfg.Counts = map[corpus.PatternKind]int{
		corpus.Misplaced:    4,
		corpus.RepeatedRead: 2,
		corpus.WrongType:    1,
		corpus.Unneeded:     3,
		corpus.InitFlag:     6,
	}
	c := corpus.Generate(cfg)
	p := ofence.NewProject()
	for _, name := range c.Order {
		p.AddSource(name, c.Files[name])
	}
	res, err := p.AnalyzeParallel(context.Background(), ofence.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	verdicts := CheckAll(res.Findings)
	if len(verdicts) == 0 {
		t.Fatal("no verdicts")
	}
	confirmed := 0
	for _, v := range verdicts {
		if v.Confirmed {
			confirmed++
		} else {
			t.Logf("unconfirmed: %v", v)
		}
	}
	// Every injected deviation must be litmus-confirmed: the corpus only
	// injects real reordering bugs.
	if confirmed != len(verdicts) {
		t.Errorf("confirmed %d of %d verdicts", confirmed, len(verdicts))
	}
	if v := verdicts[0].String(); v == "" {
		t.Error("empty verdict string")
	}
}

func TestCleanPatternOnlyAnnotationVerdicts(t *testing.T) {
	// A clean pairing yields no ordering deviations; the only checkable
	// findings are the §7 annotation suggestions, all confirmed by the
	// tearing model.
	res := analyzeOne(t, "arp.c", fixtureSource(t, "arp_tables.c"))
	verdicts := CheckAll(res.Findings)
	for _, v := range verdicts {
		if v.Finding.Kind != ofence.MissingOnce {
			t.Errorf("clean fixture produced ordering verdict: %v", v)
		}
		if !v.Confirmed {
			t.Errorf("annotation verdict unconfirmed: %v", v)
		}
	}
}
