package diag

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"ofence/internal/ofence"
)

// run analyzes the sources and feeds the result through the diagnostics
// engine with the built-in passes.
func run(t *testing.T, srcs map[string]string) []Diagnostic {
	t.Helper()
	_, ds := runBoth(t, srcs)
	return ds
}

func runBoth(t *testing.T, srcs map[string]string) (*Context, []Diagnostic) {
	t.Helper()
	p := ofence.NewProject()
	names := make([]string, 0, len(srcs))
	for name := range srcs {
		names = append(names, name)
	}
	// Deterministic insertion order regardless of map iteration.
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			if names[j] < names[i] {
				names[i], names[j] = names[j], names[i]
			}
		}
	}
	for _, name := range names {
		p.AddSource(name, srcs[name])
	}
	opts := ofence.DefaultOptions()
	res, err := p.AnalyzeParallel(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range res.ParseErrors {
		t.Fatalf("parse error: %v", err)
	}
	ctx := &Context{
		Result:  res,
		Files:   p.Files(),
		Sources: srcs,
		Opts:    opts,
	}
	return ctx, Run(ctx, DefaultPasses())
}

func withRule(ds []Diagnostic, id string) []Diagnostic {
	var out []Diagnostic
	for _, d := range ds {
		if d.RuleID == id {
			out = append(out, d)
		}
	}
	return out
}

// The §5 deviation finding must surface as an OF0002 diagnostic with the
// suggested replacement in the message.
func TestDeviationDiagnostics(t *testing.T) {
	ds := run(t, map[string]string{"wrong.c": `
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
}`})
	wt := withRule(ds, "OF0002")
	if len(wt) != 1 {
		t.Fatalf("OF0002 diagnostics = %d (%v), want 1", len(wt), ds)
	}
	d := wt[0]
	if d.Severity != Error || d.Function != "r" || !strings.Contains(d.Message, "smp_rmb") {
		t.Errorf("diagnostic = %+v", d)
	}
	if d.File != "wrong.c" || d.Line == 0 {
		t.Errorf("location = %s:%d", d.File, d.Line)
	}
}

func TestUnneededBarrierDiagnostic(t *testing.T) {
	ds := run(t, map[string]string{"ub.c": `
struct s { int a; int b; };
void w(struct s *p) {
	p->a = 1;
	smp_mb();
	smp_mb();
	p->b = 1;
}`})
	if len(withRule(ds, "OF0005")) == 0 {
		t.Fatalf("no OF0005 diagnostic in %v", ds)
	}
	// The same shape also trips the syntactic duplicate-adjacent lint.
	if len(withRule(ds, "OF0008")) == 0 {
		t.Fatalf("no OF0008 diagnostic in %v", ds)
	}
}

func TestBarrierInLoop(t *testing.T) {
	ds := run(t, map[string]string{"loop.c": `
void spin(int n) {
	while (n) {
		smp_mb();
		n = n - 1;
	}
}
void once_only(int *p) {
	*p = 1;
	smp_mb();
}`})
	loops := withRule(ds, "OF0007")
	if len(loops) != 1 {
		t.Fatalf("OF0007 diagnostics = %v, want exactly the loop barrier", loops)
	}
	if loops[0].Function != "spin" || loops[0].Severity != Note {
		t.Errorf("diagnostic = %+v", loops[0])
	}
}

func TestDuplicateAdjacentBarrier(t *testing.T) {
	ds := run(t, map[string]string{"dup.c": `
void full_then_weaker(int *p) {
	smp_mb();
	smp_wmb();
}
void weaker_then_full(int *p) {
	smp_wmb();
	smp_mb();
}
void conditional_not_dup(int c) {
	if (c)
		smp_mb();
	smp_wmb();
}
void separated_not_dup(int *p) {
	smp_wmb();
	*p = 1;
	smp_wmb();
}`})
	dups := withRule(ds, "OF0008")
	if len(dups) != 1 {
		t.Fatalf("OF0008 diagnostics = %v, want only full_then_weaker", dups)
	}
	if dups[0].Function != "full_then_weaker" || !strings.Contains(dups[0].Message, "smp_wmb") {
		t.Errorf("diagnostic = %+v", dups[0])
	}
}

func TestSuppressionSameLineAndLineAbove(t *testing.T) {
	ds := run(t, map[string]string{"sup.c": `
void same_line(int *p) {
	smp_mb();
	smp_wmb(); /* ofence:ignore */
}
void line_above(int *p) {
	smp_mb();
	/* ofence:ignore OF0008 */
	smp_wmb();
}
void wrong_rule(int *p) {
	smp_mb();
	/* ofence:ignore OF0001 */
	smp_wmb();
}
void by_name(int *p) {
	smp_mb();
	smp_wmb(); /* ofence:ignore duplicate-adjacent-barrier */
}`})
	dups := withRule(ds, "OF0008")
	if len(dups) != 4 {
		t.Fatalf("OF0008 diagnostics = %d (%v), want 4 (suppressed ones kept, marked)", len(dups), dups)
	}
	want := map[string]bool{
		"same_line":  true,
		"line_above": true,
		"wrong_rule": false,
		"by_name":    true,
	}
	for _, d := range dups {
		if d.Suppressed != want[d.Function] {
			t.Errorf("%s: suppressed = %t, want %t", d.Function, d.Suppressed, want[d.Function])
		}
	}
}

// Satellite: deterministic ordering — the sort lives in one place and is
// pinned to (file, line, rule ID).
func TestDeterministicOrder(t *testing.T) {
	srcs := map[string]string{
		"b.c": `
void dup_b(int *p) {
	smp_mb();
	smp_wmb();
}
void loop_b(int n) {
	while (n) {
		smp_mb();
		n = n - 1;
	}
}`,
		"a.c": `
void dup_a(int *p) {
	smp_mb();
	smp_wmb();
}`,
	}
	var prev []Diagnostic
	for i := 0; i < 5; i++ {
		ds := run(t, srcs)
		if i > 0 {
			if len(ds) != len(prev) {
				t.Fatalf("run %d: %d diagnostics, was %d", i, len(ds), len(prev))
			}
			for j := range ds {
				if ds[j] != prev[j] {
					t.Fatalf("run %d: order differs at %d: %+v vs %+v", i, j, ds[j], prev[j])
				}
			}
		}
		prev = ds
	}
	// Pinned order: files ascending, then lines, then rule IDs.
	for i := 1; i < len(prev); i++ {
		a, b := prev[i-1], prev[i]
		if a.File > b.File {
			t.Fatalf("file order violated: %+v before %+v", a, b)
		}
		if a.File == b.File && a.Line > b.Line {
			t.Fatalf("line order violated: %+v before %+v", a, b)
		}
		if a.File == b.File && a.Line == b.Line && a.RuleID > b.RuleID {
			t.Fatalf("rule order violated: %+v before %+v", a, b)
		}
	}
}

// The SARIF export must carry the 2.1.0 shape: schema/version, rules with
// IDs and levels, results with ruleId/ruleIndex/locations, and inSource
// suppressions.
func TestSARIFShape(t *testing.T) {
	_, ds := runBoth(t, map[string]string{"s.c": `
void d(int *p) {
	smp_mb();
	smp_wmb(); /* ofence:ignore */
}
void e(int *p) {
	smp_mb();
	smp_wmb();
}`})
	raw, err := MarshalSARIF(ds, Rules(DefaultPasses()))
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if m["version"] != "2.1.0" {
		t.Errorf("version = %v", m["version"])
	}
	if s, _ := m["$schema"].(string); !strings.Contains(s, "sarif-2.1.0") {
		t.Errorf("$schema = %v", m["$schema"])
	}
	runs := m["runs"].([]any)
	if len(runs) != 1 {
		t.Fatalf("runs = %d", len(runs))
	}
	run0 := runs[0].(map[string]any)
	driver := run0["tool"].(map[string]any)["driver"].(map[string]any)
	if driver["name"] != "ofence" {
		t.Errorf("driver name = %v", driver["name"])
	}
	rules := driver["rules"].([]any)
	if len(rules) != 8 {
		t.Errorf("rules = %d, want 8 built-ins", len(rules))
	}
	ruleIDs := make([]string, len(rules))
	for i, r := range rules {
		rm := r.(map[string]any)
		ruleIDs[i] = rm["id"].(string)
		cfg := rm["defaultConfiguration"].(map[string]any)
		switch cfg["level"] {
		case "error", "warning", "note":
		default:
			t.Errorf("rule %s level = %v", rm["id"], cfg["level"])
		}
	}

	results := run0["results"].([]any)
	if len(results) != len(ds) {
		t.Fatalf("results = %d, want %d", len(results), len(ds))
	}
	suppressed := 0
	for _, r := range results {
		rm := r.(map[string]any)
		id := rm["ruleId"].(string)
		idx := int(rm["ruleIndex"].(float64))
		if idx < 0 || idx >= len(ruleIDs) || ruleIDs[idx] != id {
			t.Errorf("ruleIndex %d does not point at %s", idx, id)
		}
		locs := rm["locations"].([]any)
		phys := locs[0].(map[string]any)["physicalLocation"].(map[string]any)
		if phys["artifactLocation"].(map[string]any)["uri"] != "s.c" {
			t.Errorf("uri = %v", phys["artifactLocation"])
		}
		if int(phys["region"].(map[string]any)["startLine"].(float64)) <= 0 {
			t.Errorf("missing startLine in %v", phys)
		}
		if sups, ok := rm["suppressions"].([]any); ok {
			if sups[0].(map[string]any)["kind"] != "inSource" {
				t.Errorf("suppression kind = %v", sups[0])
			}
			suppressed++
		}
	}
	if suppressed != 1 {
		t.Errorf("suppressed results = %d, want 1", suppressed)
	}
}

// fakePass is a caller-supplied pass: Rules and Run take it next to the
// built-in ones.
type fakePass struct{}

func (fakePass) Rules() []Rule {
	return []Rule{{ID: "XT9999", Name: "external", Severity: Note, Help: "test"}}
}
func (fakePass) Run(ctx *Context) []Diagnostic {
	return []Diagnostic{{RuleID: "XT9999", Severity: Note, File: "x.c", Line: 1, Message: "hi"}}
}

func TestRegisterExternalPass(t *testing.T) {
	ctx, ds := runBoth(t, map[string]string{"ub.c": `
struct s { int a; int b; };
void w(struct s *p) {
	p->a = 1;
	smp_mb();
	smp_mb();
	p->b = 1;
}`})
	passes := append(DefaultPasses(), fakePass{})
	found := false
	for _, r := range Rules(passes) {
		if r.ID == "XT9999" {
			found = true
		}
	}
	if !found {
		t.Error("caller-supplied rule missing from Rules()")
	}
	got := Run(ctx, passes)
	if len(withRule(got, "XT9999")) != 1 {
		t.Errorf("caller-supplied pass's diagnostic missing from Run(): %v", got)
	}
	if len(got) != len(ds)+1 {
		t.Errorf("Run() = %d diagnostics, want the %d built-in ones plus one", len(got), len(ds))
	}
}

// TestSortConfidenceTieBreak is the regression test for the ranking
// tie-break: diagnostics at the same position with the same rule must order
// by descending confidence, and the order must be identical however the
// input is initially arranged.
func TestSortConfidenceTieBreak(t *testing.T) {
	mk := func(conf float64, msg string) Diagnostic {
		return Diagnostic{
			RuleID: "OF0001", Severity: Error,
			File: "x.c", Line: 10, Col: 3,
			Function: "f", Message: msg, Confidence: conf,
		}
	}
	base := []Diagnostic{
		mk(0.25, "low"),
		mk(0.9, "high"),
		mk(0.5, "mid"),
		mk(0.9, "high-b"),
	}
	perms := [][]int{
		{0, 1, 2, 3}, {3, 2, 1, 0}, {1, 3, 0, 2}, {2, 0, 3, 1},
	}
	var want []Diagnostic
	for pi, perm := range perms {
		ds := make([]Diagnostic, len(base))
		for i, j := range perm {
			ds[i] = base[j]
		}
		Sort(ds)
		for i := 1; i < len(ds); i++ {
			if ds[i-1].Confidence < ds[i].Confidence {
				t.Fatalf("perm %d: confidence order violated at %d: %+v before %+v", pi, i, ds[i-1], ds[i])
			}
		}
		if pi == 0 {
			want = ds
			continue
		}
		for i := range ds {
			if ds[i] != want[i] {
				t.Fatalf("perm %d: equal-position findings order unstably at %d: %+v vs %+v", pi, i, ds[i], want[i])
			}
		}
	}
	// Equal confidence falls through to the message tie-break, so the two
	// 0.9 entries keep one canonical order too.
	if want[0].Message != "high" || want[1].Message != "high-b" {
		t.Fatalf("equal-confidence entries must order by message: %+v", want[:2])
	}
}
