package ofence_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"ofence/internal/cast"
	"ofence/internal/ctypes"
	"ofence/internal/ofence"
	"ofence/internal/sitegen"
)

// TestHeaderDeclsReadOnly checks that the header declarations the
// environment's memo shares between files are never written to: it
// records them by parsing every file of a tree under another name, then
// analyzes the tree at depths 0 and 1 with four workers, and two edited clones concurrently, and requires
// every shared declaration to print as it did before and every run to
// equal a cold one. Run under -race it also checks the memo's locking.
func TestHeaderDeclsReadOnly(t *testing.T) {
	tr := sitegen.GenerateTree(sitegen.DefaultTreeSpec(48, 7))
	p := treeProject(tr)

	// A declaration in two files' trees came from the memo.
	seen := map[cast.Decl]int{}
	for _, f := range tr.Files {
		for _, d := range p.FrontendForTest("probe/"+f.Name, f.Src).Decls {
			seen[d]++
		}
	}
	before := map[cast.Decl]string{}
	for d, n := range seen {
		if n > 1 {
			before[d] = fmt.Sprintf("@%v %s", d.Pos(), cast.Print(d))
		}
	}
	if len(before) == 0 {
		t.Fatal("no declaration is shared between files")
	}

	cold := func(edited map[string]string, opts ofence.Options) string {
		c := treeProject(tr)
		for n, s := range edited {
			c.ReplaceSource(n, s)
		}
		return viewJSON(t, mustAnalyze(t, c, opts))
	}
	d0 := ofence.DefaultOptions()
	d0.Workers = 4
	d1 := d0
	d1.InterprocDepth = 1
	for _, opts := range []ofence.Options{d0, d1} {
		if viewJSON(t, mustAnalyze(t, p, opts)) != cold(nil, opts) {
			t.Errorf("depth %d: output differs from a cold run", opts.InterprocDepth)
		}
	}
	spliced := 0
	for _, fu := range p.Files() {
		for _, d := range fu.AST.Decls {
			if _, ok := before[d]; ok {
				spliced++
			}
		}
	}
	if spliced == 0 {
		t.Error("analysis spliced no declaration from the memo")
	}

	clones := []*ofence.Project{p.Clone(), p.Clone()}
	edits := []map[string]string{
		{tr.Files[0].Name: tr.Files[0].Src + "\nint clone_a;\n"},
		{tr.Files[1].Name: tr.Files[1].Src + "\nint clone_b;\n"},
	}
	results := make([]string, len(clones))
	var wg sync.WaitGroup
	for i, c := range clones {
		for n, s := range edits[i] {
			c.ReplaceSource(n, s)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = viewJSON(t, mustAnalyze(t, c, []ofence.Options{d0, d1}[i]))
		}()
	}
	wg.Wait()
	for i := range clones {
		if results[i] != cold(edits[i], []ofence.Options{d0, d1}[i]) {
			t.Errorf("clone %d: output differs from a cold run", i)
		}
	}

	for d, want := range before {
		if got := fmt.Sprintf("@%v %s", d.Pos(), cast.Print(d)); got != want {
			t.Errorf("shared declaration changed:\n got: %s\nwant: %s", got, want)
		}
	}
}

// TestSharedHeaderTables checks the type tables that extend a table shared
// by every file starting with the same spliced header declarations: each
// file's table must resolve every name the file declares as a table built
// from the file's declarations alone does. The fixtures interleave own
// declarations with includes, redeclare a header's struct between two
// includes and after them, and declare before any include; the tree covers
// a realistic layout.
func TestSharedHeaderTables(t *testing.T) {
	headers := map[string]string{
		"h1.h": "struct s1 { int a; };\ntypedef struct s1 s1_t;\nint h1(void);\n",
		"h2.h": "struct s2 { int b; };\nint g2;\n",
	}
	fixtures := []ofence.SourceFile{
		{Name: "a.c", Src: "#include \"h1.h\"\nstruct own { int x; };\n#include \"h2.h\"\nint use_a(s1_t *p) { return p->a; }\n"},
		{Name: "b.c", Src: "#include \"h1.h\"\nstruct s1 { long other; };\n#include \"h2.h\"\nint use_b(void);\n"},
		{Name: "c.c", Src: "#include \"h1.h\"\n#include \"h2.h\"\nstruct s2 { char c; };\n"},
		{Name: "d.c", Src: "struct own { int y; };\n#include \"h1.h\"\n#include \"h2.h\"\n"},
		{Name: "e.c", Src: "#include \"h1.h\"\n#include \"h2.h\"\nlong h1(void);\n"},
	}
	fx := ofence.NewProject()
	for n, src := range headers {
		fx.AddHeader(n, src)
	}
	fx.AddSources(fixtures)
	for _, p := range []*ofence.Project{fx, treeProject(sitegen.GenerateTree(sitegen.DefaultTreeSpec(48, 7)))} {
		opts := ofence.DefaultOptions()
		opts.Workers = 1
		mustAnalyze(t, p, opts)
		for _, fu := range p.Files() {
			if got, want := resolveAll(fu.Table, fu.AST), resolveAll(ctypes.NewTable(fu.AST), fu.AST); got != want {
				t.Errorf("%s: table resolves\n%s\nwant\n%s", fu.Name, got, want)
			}
		}
	}
}

// resolveAll renders what tb resolves of every name f declares.
func resolveAll(tb *ctypes.Table, f *cast.File) string {
	sc := tb.NewScope(&cast.FuncDecl{})
	var b strings.Builder
	for _, d := range f.Decls {
		var names []string
		switch x := d.(type) {
		case *cast.StructDecl:
			names = []string{x.Tag}
		case *cast.TypedefDecl:
			names = []string{x.Name}
			if x.Struct != nil {
				names = append(names, x.Struct.Tag)
			}
		case *cast.VarDecl:
			names = []string{x.Name}
		case *cast.FuncDecl:
			names = []string{x.Name}
		}
		for _, n := range names {
			fmt.Fprintf(&b, "%s: struct %p func %p type %s value %s\n", n, tb.Struct(n), tb.Func(n),
				tb.Resolve(&cast.TypeExpr{Name: n}), sc.ExprType(&cast.Ident{Name: n}))
		}
	}
	return b.String()
}
