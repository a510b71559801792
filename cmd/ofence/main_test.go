package main

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ofence/internal/ofence"
)

const testSrc = `
struct s { int flag; int data; };
void w(struct s *p) {
	p->data = 1;
	smp_wmb();
	p->flag = 1;
}
void r(struct s *p) {
	smp_rmb();
	if (!p->flag)
		return;
	use(p->data);
}`

func writeTree(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "a.c"), []byte(testSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	sub := filepath.Join(dir, "sub")
	if err := os.Mkdir(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(sub, "b.c"), []byte("int unused;"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("not C"), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestAddPathWalksTree(t *testing.T) {
	dir := writeTree(t)
	srcs, hdrs, err := addPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(srcs) != 2 {
		t.Errorf("files = %d, want 2 (.txt skipped)", len(srcs))
	}
	if len(hdrs) != 0 {
		t.Errorf("headers = %d, want 0 (no .h files in tree)", len(hdrs))
	}
}

func TestAddPathSingleFile(t *testing.T) {
	dir := writeTree(t)
	srcs, _, err := addPath(filepath.Join(dir, "a.c"))
	if err != nil {
		t.Fatal(err)
	}
	if len(srcs) != 1 {
		t.Errorf("files = %d", len(srcs))
	}
	proj := ofence.NewProject()
	proj.AddSources(srcs)
	res, err := proj.AnalyzeParallel(context.Background(), ofence.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairings) != 1 {
		t.Errorf("pairings = %d", len(res.Pairings))
	}
	misplaced := false
	for _, f := range res.Findings {
		if f.Kind == ofence.MisplacedAccess {
			misplaced = true
		}
	}
	if !misplaced {
		t.Error("misplaced access not found through CLI path")
	}
}

func TestAddPathMissing(t *testing.T) {
	if _, _, err := addPath("/nonexistent/path.c"); err == nil {
		t.Error("expected error for missing path")
	}
}

// TestJSONRoundTrip checks the -json output contract: the marshaled
// Result.View survives an unmarshal back into ResultView unchanged, so
// downstream consumers can rely on the field names.
func TestJSONRoundTrip(t *testing.T) {
	proj := ofence.NewProject()
	proj.AddSources([]ofence.SourceFile{{Name: "a.c", Src: testSrc}})
	res, err := proj.AnalyzeParallel(context.Background(), ofence.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	view := res.View()
	if len(view.Pairings) != 1 || len(view.Findings) == 0 {
		t.Fatalf("view = %+v", view)
	}
	data, err := json.MarshalIndent(view, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var back ofence.ResultView
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal -json output: %v", err)
	}
	if !reflect.DeepEqual(view, back) {
		t.Errorf("round trip changed the view:\n%+v\nvs\n%+v", view, back)
	}
	for _, want := range []string{`"barrier_sites"`, `"pairings"`, `"findings"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("-json output missing %s", want)
		}
	}
}

// TestExitStatus covers the -exit-code contract: status 1 only when gating
// is on AND the run reported findings.
func TestExitStatus(t *testing.T) {
	cases := []struct {
		gate     bool
		findings int
		want     int
	}{
		{gate: false, findings: 0, want: 0},
		{gate: false, findings: 3, want: 0},
		{gate: true, findings: 0, want: 0},
		{gate: true, findings: 1, want: 1},
		{gate: true, findings: 7, want: 1},
	}
	for _, c := range cases {
		if got := exitStatus(c.gate, c.findings); got != c.want {
			t.Errorf("exitStatus(%v, %d) = %d, want %d", c.gate, c.findings, got, c.want)
		}
	}
}

// TestTraceFlow drives the CLI tracing plumbing end to end: an analysis
// under traceContext must produce a stage tree naming the pipeline phases
// and a Chrome trace file with valid JSON.
func TestTraceFlow(t *testing.T) {
	ctx, tracer := traceContext(true)
	if tracer == nil {
		t.Fatal("traceContext(true) returned no tracer")
	}
	proj := ofence.NewProject()
	proj.AddSources([]ofence.SourceFile{{Name: "a.c", Src: testSrc}})
	if _, err := proj.AnalyzeParallel(ctx, ofence.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	tree := tracer.Tree()
	for _, stage := range []string{"analyze", "preprocess", "parse", "cfg", "extract", "pair", "check"} {
		if !strings.Contains(tree, stage) {
			t.Errorf("trace tree missing stage %q:\n%s", stage, tree)
		}
	}

	out := filepath.Join(t.TempDir(), "trace.json")
	finishTrace(tracer, false, out)
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("-trace-out wrote invalid JSON: %v", err)
	}
	if len(doc.TraceEvents) < 7 {
		t.Errorf("trace events = %d, want at least one per stage", len(doc.TraceEvents))
	}

	// Tracing off: nil tracer, no-op finish.
	if _, tr := traceContext(false); tr != nil {
		t.Error("traceContext(false) returned a tracer")
	}
	finishTrace(nil, true, "")
}

func TestIndent(t *testing.T) {
	got := indent("a\nb\n", "  ")
	if got != "  a\n  b" {
		t.Errorf("indent = %q", got)
	}
	if !strings.HasPrefix(indent("x", "\t"), "\t") {
		t.Error("single line not indented")
	}
}

// TestSARIFReport checks the -sarif output path end to end: analyzing the
// test source must produce a valid-shape SARIF document whose results carry
// the engine's rule IDs.
func TestSARIFReport(t *testing.T) {
	proj := ofence.NewProject()
	srcs := []ofence.SourceFile{{Name: "a.c", Src: testSrc}}
	proj.AddSources(srcs)
	opts := ofence.DefaultOptions()
	res, err := proj.AnalyzeParallel(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	data, nDiags, err := sarifReport(context.Background(), res, proj, srcs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if nDiags == 0 {
		t.Error("diagnostic count = 0 for a source with a known deviation")
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("invalid SARIF JSON: %v", err)
	}
	if m["version"] != "2.1.0" {
		t.Errorf("version = %v", m["version"])
	}
	run0 := m["runs"].([]any)[0].(map[string]any)
	if name := run0["tool"].(map[string]any)["driver"].(map[string]any)["name"]; name != "ofence" {
		t.Errorf("driver name = %v", name)
	}
	results := run0["results"].([]any)
	if len(results) == 0 {
		t.Fatal("no SARIF results for a source with a known deviation")
	}
	seen := map[string]bool{}
	for _, r := range results {
		seen[r.(map[string]any)["ruleId"].(string)] = true
	}
	if !seen["OF0001"] {
		t.Errorf("rule IDs %v missing OF0001 (misplaced access)", seen)
	}
}

// TestRepeatedPathIsOneFile builds the CLI and runs it on one file named
// several ways: a repeated argument, a ./-prefixed spelling and the file's
// directory all name one file, analyzed once.
func TestRepeatedPathIsOneFile(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLI")
	}
	dir := t.TempDir()
	bin := buildCLI(t, dir)
	if err := os.Mkdir(filepath.Join(dir, "d"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "d", "a.c"), []byte(testSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	run := func(args ...string) string {
		t.Helper()
		cmd := exec.Command(bin, args...)
		cmd.Dir = dir
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("ofence %v: %v", args, err)
		}
		return string(out)
	}
	want := run("-json", "d/a.c")
	for _, args := range [][]string{{"d/a.c", "d/a.c"}, {"d", "./d/a.c"}} {
		if got := run(append([]string{"-json"}, args...)...); got != want {
			t.Errorf("-json %v differs from -json d/a.c:\n%s\nvs\n%s", args, got, want)
		}
		if got := run(args...); !strings.Contains(got, "ofence: 1 files, 2 barrier sites") {
			t.Errorf("ofence %v: want one file with two sites, got:\n%s", args, got)
		}
	}
}
