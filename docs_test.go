package ofence_test

// Documentation lint, run by `make lint` (go test . -run TestDocs):
//
//   - every flag registered by a cmd/ binary must be mentioned in
//     docs/CLI.md, and every flag row of a binary's section must name a
//     flag the binary registers, so the flag reference cannot go stale;
//   - every exported top-level identifier in internal/obs must carry a doc
//     comment, since obs is the instrumentation API other packages build
//     against.

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// cmdFlags parses one cmd/<name>/main.go and returns the first-argument
// string literals of every flag.String/Bool/Int/Int64/Float64/Duration
// call — the registered flag names.
func cmdFlags(t *testing.T, mainGo string) []string {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, mainGo, nil, 0)
	if err != nil {
		t.Fatalf("parse %s: %v", mainGo, err)
	}
	registrars := map[string]bool{
		"String": true, "Bool": true, "Int": true, "Int64": true,
		"Uint": true, "Uint64": true, "Float64": true, "Duration": true,
	}
	var flags []string
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !registrars[sel.Sel.Name] {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
			return true
		}
		if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			flags = append(flags, strings.Trim(lit.Value, `"`))
		}
		return true
	})
	sort.Strings(flags)
	return flags
}

// flagRow matches a flag-table row of docs/CLI.md and captures the flag
// name: "| `-name` ...".
var flagRow = regexp.MustCompile("^\\| `-([A-Za-z0-9-]+)`")

// docFlagRows returns the flag names the tables of each "## <section>" of
// docs/CLI.md list, keyed by section title.
func docFlagRows(text string) map[string][]string {
	rows := map[string][]string{}
	section := ""
	for _, line := range strings.Split(text, "\n") {
		if title, ok := strings.CutPrefix(line, "## "); ok {
			section = strings.TrimSpace(title)
			continue
		}
		if m := flagRow.FindStringSubmatch(line); m != nil {
			rows[section] = append(rows[section], m[1])
		}
	}
	return rows
}

// TestDocsCLIFlagCoverage fails when a binary registers a flag that
// docs/CLI.md does not mention as `-name`, or when a binary's section of
// docs/CLI.md has a flag row for a flag the binary does not register.
func TestDocsCLIFlagCoverage(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("docs", "CLI.md"))
	if err != nil {
		t.Fatalf("docs/CLI.md missing: %v", err)
	}
	text := string(doc)

	cmds, err := filepath.Glob(filepath.Join("cmd", "*", "main.go"))
	if err != nil || len(cmds) == 0 {
		t.Fatalf("no cmd/*/main.go found (err=%v)", err)
	}
	rows := docFlagRows(text)
	for _, mainGo := range cmds {
		binary := filepath.Base(filepath.Dir(mainGo))
		if !strings.Contains(text, "## "+binary) {
			t.Errorf("docs/CLI.md has no section for %s", binary)
		}
		registered := map[string]bool{}
		for _, name := range cmdFlags(t, mainGo) {
			registered[name] = true
			if !strings.Contains(text, "`-"+name+"`") && !strings.Contains(text, "`-"+name+" ") {
				t.Errorf("docs/CLI.md does not document %s -%s", binary, name)
			}
		}
		for _, name := range rows[binary] {
			if !registered[name] {
				t.Errorf("docs/CLI.md lists %s -%s, which %s does not register", binary, name, mainGo)
			}
		}
	}
}

// TestDocsObsExportedComments fails when internal/obs exports an
// identifier without a doc comment.
func TestDocsObsExportedComments(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, filepath.Join("internal", "obs"), func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for fname, f := range pkg.Files {
			for _, decl := range f.Decls {
				for _, missing := range undocumentedExports(decl) {
					pos := fset.Position(decl.Pos())
					t.Errorf("%s:%d: exported %s has no doc comment", fname, pos.Line, missing)
				}
			}
		}
	}
}

// undocumentedExports returns the exported names a top-level declaration
// introduces without documentation. For grouped var/const/type blocks a
// doc comment on either the block or the individual spec counts.
func undocumentedExports(decl ast.Decl) []string {
	var missing []string
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Name.IsExported() && d.Doc == nil {
			name := d.Name.Name
			if d.Recv != nil && len(d.Recv.List) == 1 {
				name = fmt.Sprintf("method %s (on %s)", name, recvType(d.Recv.List[0].Type))
			}
			missing = append(missing, name)
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch sp := spec.(type) {
			case *ast.TypeSpec:
				if sp.Name.IsExported() && d.Doc == nil && sp.Doc == nil && sp.Comment == nil {
					missing = append(missing, "type "+sp.Name.Name)
				}
			case *ast.ValueSpec:
				for _, name := range sp.Names {
					if name.IsExported() && d.Doc == nil && sp.Doc == nil && sp.Comment == nil {
						missing = append(missing, name.Name)
					}
				}
			}
		}
	}
	return missing
}

func recvType(expr ast.Expr) string {
	if star, ok := expr.(*ast.StarExpr); ok {
		expr = star.X
	}
	if id, ok := expr.(*ast.Ident); ok {
		return id.Name
	}
	return "?"
}

// TestDocsMetricsCoverage fails when internal/service registers a
// Prometheus series (any whole string literal of the form ofence_*) that
// docs/OBSERVABILITY.md does not mention, or when any obs span counter
// added anywhere in the tree (a `.Add("name", ...)` literal) is missing
// from the span documentation. This keeps the metrics catalog — including
// the incremental-pipeline counters and the lease series — honest the same
// way the flag table is.
func TestDocsMetricsCoverage(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("docs", "OBSERVABILITY.md"))
	if err != nil {
		t.Fatalf("docs/OBSERVABILITY.md missing: %v", err)
	}
	text := string(doc)

	for _, name := range stringLiterals(t, filepath.Join("internal", "service"), isMetricName) {
		if !strings.Contains(text, "`"+name+"`") {
			t.Errorf("docs/OBSERVABILITY.md does not document metric %s", name)
		}
	}
	for _, name := range spanCounterNames(t) {
		if !strings.Contains(text, "`"+name+"`") {
			t.Errorf("docs/OBSERVABILITY.md does not document span counter %s", name)
		}
	}
}

// isMetricName reports whether a string literal is a bare Prometheus
// series name (as opposed to a format string or help text mentioning one).
func isMetricName(s string) bool {
	if !strings.HasPrefix(s, "ofence_") {
		return false
	}
	for _, r := range s {
		if (r < 'a' || r > 'z') && r != '_' {
			return false
		}
	}
	return true
}

// stringLiterals parses every non-test Go file under dir and returns the
// distinct string literals accepted by keep, sorted.
func stringLiterals(t *testing.T, dir string, keep func(string) bool) []string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					s := strings.Trim(lit.Value, "`\"")
					if keep(s) {
						seen[s] = true
					}
				}
				return true
			})
		}
	}
	var out []string
	for s := range seen {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// spanCounterNames returns the distinct counter names passed to obs
// span.Add(...) calls across internal/ and cmd/, found syntactically as
// any method call named Add whose first argument is a string literal.
func spanCounterNames(t *testing.T) []string {
	t.Helper()
	fset := token.NewFileSet()
	seen := map[string]bool{}
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
			if err != nil || info.IsDir() || !strings.HasSuffix(path, ".go") ||
				strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) < 2 {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Add" {
					return true
				}
				if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					seen[strings.Trim(lit.Value, `"`)] = true
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	var out []string
	for s := range seen {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// TestDocsBenchJSONSchema fails when any recorded benchmark document
// (BENCH_*.json at the repo root) is missing the shared schema's required
// fields, so every headline number stays traceable to the command that
// produced it and the acceptance bar it was measured against.
func TestDocsBenchJSONSchema(t *testing.T) {
	files, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no BENCH_*.json documents found at the repo root")
	}
	// Subsystems with a recorded headline number must keep it recorded:
	// losing the document silently would orphan the tuned constants that
	// mirror it (rank.DefaultThreshold mirrors BENCH_confidence.json) or the
	// acceptance bar measured against it (BENCH_frontend.json carries the
	// frontend overhaul's >=3x bar, BENCH_treescale.json the tree-scale
	// global-phase overhaul's >=2.5x bar).
	required := []string{"BENCH_confidence.json", "BENCH_frontend.json", "BENCH_treescale.json"}
	have := map[string]bool{}
	for _, f := range files {
		have[filepath.Base(f)] = true
	}
	for _, f := range required {
		if !have[f] {
			t.Errorf("required benchmark document %s is missing (refresh with make bench-confidence)", f)
		}
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		var doc map[string]any
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Errorf("%s: invalid JSON: %v", file, err)
			continue
		}
		for _, field := range []string{"benchmark", "command", "results", "acceptance"} {
			if _, ok := doc[field]; !ok {
				t.Errorf("%s: missing required field %q", file, field)
			}
		}
	}
}
