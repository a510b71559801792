package ofence_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"ofence/internal/corpus"
	"ofence/internal/kernelhdr"
	"ofence/internal/ofence"
	"ofence/internal/sitegen"
)

// The golden suite pins what the analyzer outputs. Every case below is a
// fixed input set analyzed at InterprocDepth 0, 1 and 2; each (case, depth)
// pair has one frozen record in testdata/golden.txt: the SHA-256 of the
// ResultView JSON plus the site, pairing, finding and inferred-function
// counts, so a failure says what moved. Every worker count and GOMAXPROCS
// setting must reproduce the same record.
//
// The records were produced by the pre-overhaul front end (rune lexer,
// arena-free parser) and by the sequential global phases (single-pass call
// graph, round-robin semantics fixpoint, per-file closure BFS), and by the
// optimized path, which agreed on every one. There is no update flag: an
// intended output change is a reviewed edit of testdata/golden.txt, using
// the observed line the failure prints.

// goldenRecord is one frozen analysis outcome.
type goldenRecord struct {
	sha                                 string
	sites, pairings, findings, inferred int
}

func (g goldenRecord) String() string {
	return fmt.Sprintf("%s sites=%d pairings=%d findings=%d inferred=%d",
		g.sha, g.sites, g.pairings, g.findings, g.inferred)
}

func recordOf(t *testing.T, res *ofence.Result) goldenRecord {
	t.Helper()
	sum := sha256.Sum256([]byte(viewJSON(t, res)))
	return goldenRecord{
		sha:      hex.EncodeToString(sum[:]),
		sites:    len(res.Sites),
		pairings: len(res.Pairings),
		findings: len(res.Findings),
		inferred: len(res.Inferred),
	}
}

// loadGoldens reads testdata/golden.txt: one "name sha256 sites=N
// pairings=N findings=N inferred=N" line per record, # comments allowed.
func loadGoldens(t *testing.T) map[string]goldenRecord {
	t.Helper()
	f, err := os.Open("testdata/golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]goldenRecord{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var name string
		var g goldenRecord
		if _, err := fmt.Sscanf(line, "%s %s sites=%d pairings=%d findings=%d inferred=%d",
			&name, &g.sha, &g.sites, &g.pairings, &g.findings, &g.inferred); err != nil {
			t.Fatalf("testdata/golden.txt: %q: %v", line, err)
		}
		out[name] = g
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// checkGolden compares res against the frozen record name, printing the
// observed line on a mismatch.
func checkGolden(t *testing.T, goldens map[string]goldenRecord, name string, res *ofence.Result) {
	t.Helper()
	got := recordOf(t, res)
	want, ok := goldens[name]
	switch {
	case !ok:
		t.Errorf("no golden record; observed:\n%s %s", name, got)
	case got != want:
		t.Errorf("output moved from the golden record\n want: %s %s\n  got: %s %s", name, want, name, got)
	}
}

// goldenCase is one input set: load fills a fresh project with it.
type goldenCase struct {
	name string
	load func(p *ofence.Project)
}

func addSources(srcs []ofence.SourceFile) func(*ofence.Project) {
	return func(p *ofence.Project) { p.AddSources(srcs) }
}

// loadTree fills p with a generated kernel-shaped tree: the miniature
// kernel headers, the tree's per-directory headers, half the tree's config
// symbols (so #ifdef variance is exercised in both states), and every
// source file.
func loadTree(p *ofence.Project, tr *sitegen.Tree) {
	kernelhdr.Register(p)
	for _, h := range tr.Headers {
		p.AddHeader(h.Name, h.Src)
	}
	for i, c := range tr.Configs {
		if i%2 == 0 {
			p.Define(c, "1")
		}
	}
	srcs := make([]ofence.SourceFile, 0, len(tr.Files))
	for _, f := range tr.Files {
		srcs = append(srcs, ofence.SourceFile{Name: f.Name, Src: f.Src})
	}
	p.AddSources(srcs)
}

// frontendFuzzSeeds seed FuzzFrontendAnalysisDiff and double as one-file
// golden cases.
var frontendFuzzSeeds = []string{
	"int x;\n",
	"struct dev { int flag; spinlock_t lock; };\n" +
		"void init(struct dev *d) { d->flag = 1; smp_wmb(); d->ready = 1; }\n" +
		"int use(struct dev *d) { if (d->ready) { smp_rmb(); return d->flag; } return 0; }\n",
	"#define READY 1\nstruct s { int a; };\nint f(struct s *p) { return p->a == READY; }\n",
	"#ifdef CONFIG_SMP\nint smp_only(void) { return 1; }\n#else\nint smp_only(void) { return 0; }\n#endif\n",
	"void w(struct d *p) { WRITE_ONCE(p->v, 1); smp_store_release(&p->ok, 1); }\n" +
		"int r(struct d *p) { if (smp_load_acquire(&p->ok)) return READ_ONCE(p->v); return -1; }\n",
	"typedef unsigned long ulong_t;\nulong_t g(ulong_t v) { return v << 2; }\n",
	"int broken( { ;;; \"unterminated\n",
	"#define twice(x) ((x) + (x))\nint h(int v) { return twice(v); }\n",
}

// goldenTree is the generated tree of the "tree160" case.
func goldenTree() *sitegen.Tree {
	return sitegen.GenerateTree(sitegen.DefaultTreeSpec(160, 7))
}

func goldenCases() []goldenCase {
	var fixtures []ofence.SourceFile
	for _, fx := range corpus.Fixtures() {
		fixtures = append(fixtures, ofence.SourceFile{Name: fx.Name, Src: fx.Source})
	}
	tr := goldenTree()
	cases := []goldenCase{
		{"fixtures", addSources(fixtures)},
		{"corpus", addSources(corpus.Generate(corpus.DefaultConfig(1)).Sources())},
		{"diffsrc", addSources(pipelineDiffSources())},
		{"tree160", func(p *ofence.Project) { loadTree(p, tr) }},
	}
	for i, src := range frontendFuzzSeeds {
		cases = append(cases, goldenCase{
			fmt.Sprintf("fuzzseed%d", i),
			addSources([]ofence.SourceFile{{Name: "fuzz.c", Src: src}}),
		})
	}
	return cases
}

// TestGoldens checks every golden case at depths 0-2 and Workers 1, 3 and
// 8, and the corpus additionally at GOMAXPROCS 1, 2 and 8. The worker
// subtests keep the "release=false" suffix from when a second, AST-releasing
// front-end mode ran beside them, so their names stay stable.
func TestGoldens(t *testing.T) {
	goldens := loadGoldens(t)
	run := func(c goldenCase, opts ofence.Options) *ofence.Result {
		p := ofence.NewProject()
		c.load(p)
		return mustAnalyze(t, p, opts)
	}
	for _, c := range goldenCases() {
		for depth := 0; depth <= 2; depth++ {
			name := fmt.Sprintf("%s/depth%d", c.name, depth)
			for _, workers := range []int{1, 3, 8} {
				t.Run(fmt.Sprintf("%s/workers%d/release=false", name, workers), func(t *testing.T) {
					opts := ofence.DefaultOptions()
					opts.InterprocDepth = depth
					opts.Workers = workers
					checkGolden(t, goldens, name, run(c, opts))
				})
			}
			if c.name == "corpus" {
				for _, gmp := range []int{1, 2, 8} {
					t.Run(fmt.Sprintf("%s/gomaxprocs%d", name, gmp), func(t *testing.T) {
						defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(gmp))
						opts := ofence.DefaultOptions()
						opts.InterprocDepth = depth
						checkGolden(t, goldens, name, run(c, opts))
					})
				}
			}
		}
	}
}
