package ofence_test

import (
	"fmt"
	"sync"
	"testing"

	"ofence/internal/cast"
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
