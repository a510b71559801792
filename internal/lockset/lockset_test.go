package lockset

import (
	"context"
	"testing"

	"ofence/internal/access"
	"ofence/internal/corpus"
	"ofence/internal/ofence"
)

func analyzeSrc(t *testing.T, src string) *Report {
	t.Helper()
	p := ofence.NewProject()
	p.AddSource("test.c", src)
	res, err := p.AnalyzeParallel(context.Background(), ofence.DefaultOptions()) // populates tables
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range res.ParseErrors {
		t.Fatalf("parse error: %v", err)
	}
	return Analyze(p.Files())
}

func TestConsistentLockingNoWarning(t *testing.T) {
	rep := analyzeSrc(t, `
struct s { long a; long b; };
spinlock_t lk;
void upd(struct s *p) {
	spin_lock(&lk);
	p->a = 1;
	p->b = 2;
	spin_unlock(&lk);
}
long get(struct s *p) {
	long v;
	spin_lock(&lk);
	v = p->a + p->b;
	spin_unlock(&lk);
	return v;
}`)
	if len(rep.Warnings) != 0 {
		t.Errorf("consistently locked code warned: %v", rep.Warnings)
	}
	if rep.ObjectsChecked != 2 {
		t.Errorf("objects checked = %d", rep.ObjectsChecked)
	}
}

func TestMissingLockWarns(t *testing.T) {
	rep := analyzeSrc(t, `
struct s { long a; };
spinlock_t lk;
void upd(struct s *p) {
	spin_lock(&lk);
	p->a = 1;
	spin_unlock(&lk);
}
long get(struct s *p) {
	return p->a;
}`)
	if len(rep.Warnings) != 1 {
		t.Fatalf("warnings = %v", rep.Warnings)
	}
	w := rep.Warnings[0]
	if w.Object != (access.Object{Struct: "s", Field: "a"}) || w.Writes != 1 {
		t.Errorf("warning = %+v", w)
	}
	if w.String() == "" {
		t.Error("empty warning string")
	}
}

func TestDifferentLocksWarn(t *testing.T) {
	rep := analyzeSrc(t, `
struct s { long a; };
spinlock_t lk1;
spinlock_t lk2;
void f1(struct s *p) {
	spin_lock(&lk1);
	p->a = 1;
	spin_unlock(&lk1);
}
void f2(struct s *p) {
	spin_lock(&lk2);
	p->a = 2;
	spin_unlock(&lk2);
}`)
	if len(rep.Warnings) != 1 {
		t.Errorf("inconsistent locks not warned: %v", rep.Warnings)
	}
}

func TestReadOnlyNoWarning(t *testing.T) {
	rep := analyzeSrc(t, `
struct s { long a; };
long f1(struct s *p) { return p->a; }
long f2(struct s *p) { return p->a + 1; }`)
	if len(rep.Warnings) != 0 {
		t.Errorf("read-only sharing warned: %v", rep.Warnings)
	}
}

func TestSingleFunctionNoWarning(t *testing.T) {
	rep := analyzeSrc(t, `
struct s { long a; };
void f(struct s *p) { p->a = 1; use(p->a); }`)
	if len(rep.Warnings) != 0 {
		t.Errorf("single-function object warned: %v", rep.Warnings)
	}
}

func TestStatsCounterBenign(t *testing.T) {
	rep := analyzeSrc(t, `
struct s { long hits; };
void f1(struct s *p) { p->hits++; }
void f2(struct s *p) { p->hits += 2; }`)
	if len(rep.Warnings) != 0 {
		t.Errorf("stats counter warned: %v", rep.Warnings)
	}
	if rep.BenignCounters != 1 {
		t.Errorf("benign counters = %d", rep.BenignCounters)
	}
}

func TestAnnotatedAccessesBenign(t *testing.T) {
	rep := analyzeSrc(t, `
struct s { int flag; };
void f1(struct s *p) { WRITE_ONCE(p->flag, 1); }
int f2(struct s *p) { return READ_ONCE(p->flag); }`)
	if len(rep.Warnings) != 0 {
		t.Errorf("annotated accesses warned: %v", rep.Warnings)
	}
	if rep.BenignAnnotated != 1 {
		t.Errorf("benign annotated = %d", rep.BenignAnnotated)
	}
}

func TestRCUReadSideCountsAsLock(t *testing.T) {
	// rcu_read_lock/unlock act as a lock pair for the baseline, as in
	// lockdep; both sides in RCU context → no warning.
	rep := analyzeSrc(t, `
struct s { long a; };
void f1(struct s *p) {
	rcu_read_lock();
	p->a = 1;
	rcu_read_unlock();
}
long f2(struct s *p) {
	long v;
	rcu_read_lock();
	v = p->a;
	rcu_read_unlock();
	return v;
}`)
	if len(rep.Warnings) != 0 {
		t.Errorf("RCU-side accesses warned: %v", rep.Warnings)
	}
}

// The paper's headline comparison: the baseline cannot distinguish a buggy
// barrier pattern from a correct one — it produces the same verdict for
// both, while OFence flags exactly the buggy one.
func TestBaselineCannotSeeOrderingBugs(t *testing.T) {
	correct := `
struct c { long data; int flag; };
void w_ok(struct c *p) {
	p->data = 1;
	smp_wmb();
	p->flag = 1;
}
void r_ok(struct c *p) {
	if (!p->flag)
		return;
	smp_rmb();
	use(p->data);
}`
	buggy := `
struct b { long data; int flag; };
void w_bad(struct b *p) {
	p->data = 1;
	smp_wmb();
	p->flag = 1;
}
void r_bad(struct b *p) {
	smp_rmb();
	if (!p->flag)
		return;
	use(p->data);
}`
	p := ofence.NewProject()
	p.AddSource("ok.c", correct)
	p.AddSource("bad.c", buggy)
	res, err := p.AnalyzeParallel(context.Background(), ofence.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	// OFence: exactly the buggy reader is flagged.
	var flagged []string
	for _, f := range res.Findings {
		if f.Kind == ofence.MisplacedAccess {
			flagged = append(flagged, f.Site.Fn.Name)
		}
	}
	if len(flagged) != 1 || flagged[0] != "r_bad" {
		t.Errorf("ofence flagged %v, want exactly r_bad", flagged)
	}

	// Baseline: identical verdicts for both patterns (warnings on both or
	// neither) — no way to tell which is buggy.
	rep := Analyze(p.Files())
	warnedStructs := map[string]bool{}
	for _, w := range rep.Warnings {
		warnedStructs[w.Object.Struct] = true
	}
	if warnedStructs["b"] != warnedStructs["c"] {
		t.Errorf("baseline distinguished buggy from correct: %v", rep.Warnings)
	}
}

func TestBaselineOnCorpus(t *testing.T) {
	cfg := corpus.DefaultConfig(23)
	cfg.Counts = map[corpus.PatternKind]int{
		corpus.LockProtected: 10,
		corpus.StatsCounter:  5,
		corpus.InitFlag:      10,
		corpus.Misplaced:     2,
	}
	c := corpus.Generate(cfg)
	p := ofence.NewProject()
	for _, name := range c.Order {
		p.AddSource(name, c.Files[name])
	}
	if _, err := p.AnalyzeParallel(context.Background(), ofence.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	rep := Analyze(p.Files())

	// Lock-protected objects: never warned.
	for _, w := range rep.Warnings {
		for _, tr := range c.Truths {
			if tr.Kind == corpus.LockProtected && w.Object.Struct == tr.StructTag {
				t.Errorf("lock-protected object warned: %v", w)
			}
		}
	}
	// Stats counters: filtered as benign.
	if rep.BenignCounters != 5 {
		t.Errorf("benign counters = %d, want 5", rep.BenignCounters)
	}
	// Barrier patterns (correct AND buggy): warned indiscriminately.
	warnedStructs := map[string]bool{}
	for _, w := range rep.Warnings {
		warnedStructs[w.Object.Struct] = true
	}
	correctWarned, buggyWarned := 0, 0
	for _, tr := range c.Truths {
		switch tr.Kind {
		case corpus.InitFlag:
			if warnedStructs[tr.StructTag] {
				correctWarned++
			}
		case corpus.Misplaced:
			if warnedStructs[tr.StructTag] {
				buggyWarned++
			}
		}
	}
	if buggyWarned != 2 || correctWarned != 10 {
		t.Errorf("baseline discrimination: buggy %d/2 warned, correct %d/10 warned — should warn on all equally",
			buggyWarned, correctWarned)
	}
}
