package cparser_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"ofence/internal/cast"
	"ofence/internal/corpus"
	"ofence/internal/cparser"
	"ofence/internal/cpp"
	"ofence/internal/ctoken"
	"ofence/internal/kernelhdr"
	"ofence/internal/sitegen"
)

// srcFile is one root file of a differential set.
type srcFile struct{ name, src string }

// printer renders parses for comparison, caching the rendering of the
// declarations a memo shares between files.
type printer map[cast.Decl]string

// file renders f's name, position, every top-level declaration with its
// position, and errs.
func (pr printer) file(f *cast.File, errs []error) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s @%v\n", f.Name, f.Position)
	for _, d := range f.Decls {
		s, ok := pr[d]
		if !ok {
			s = fmt.Sprintf("%T @%v\n%s\n", d, d.Pos(), cast.Print(d))
			if pr != nil {
				pr[d] = s
			}
		}
		b.WriteString(s)
	}
	for _, err := range errs {
		fmt.Fprintf(&b, "error: %v\n", err)
	}
	return b.String()
}

// memoParse is what diffMemo saw of one file's parse with the memo.
type memoParse struct {
	// replayed is the number of declarations spliced; arena and fresh are
	// the arena bytes of the memo's parse and of the fresh parser's.
	replayed     int
	arena, fresh int64
	// rejoined reports that the parse fell back to the joined stream; own
	// and stream are the lengths of the file's own tokens and of the
	// whole stream.
	rejoined    bool
	own, stream int
}

// diffMemo preprocesses and parses files through one cpp.Env and one
// HeaderDecls, in order, passes times over, and checks every file against
// a fresh Env and a fresh cparser.New per file, which replay and splice
// nothing: the printed trees, the diagnostics and the fingerprints must
// be equal. It returns what it saw of each file's parse, per pass.
func diffMemo(t *testing.T, opts cpp.Options, files []srcFile, passes int) [][]memoParse {
	t.Helper()
	env := cpp.NewEnv(opts)
	memo := cparser.NewHeaderDecls()
	shared := printer{}
	seen := make([][]memoParse, passes)
	for pass := range seen {
		for _, f := range files {
			oracle := cpp.NewEnv(opts).PreprocessCtx(context.Background(), f.name, f.src)
			fresh := cparser.New(oracle.Tokens)
			want := printer(nil).file(fresh.ParseFile(f.name), fresh.Errors())
			pre := env.PreprocessCtx(context.Background(), f.name, f.src)
			if g, w := pre.Fingerprint(), oracle.Fingerprint(); g != w {
				t.Errorf("pass %d, %s: fingerprint %s, fresh Env %s", pass, f.name, g, w)
			}
			p := cparser.NewWithHeaders(pre, memo)
			if got := shared.file(p.ParseFile(f.name), p.Errors()); got != want {
				t.Errorf("pass %d, %s: the memo's parse differs from a fresh parser\n got: %s\nwant: %s", pass, f.name, got, want)
			}
			seen[pass] = append(seen[pass], memoParse{
				replayed: p.DeclsReplayed(),
				arena:    p.ArenaBytes(),
				fresh:    fresh.ArenaBytes(),
				rejoined: p.Rejoined(),
				own:      len(pre.Tokens),
				stream:   pre.Len(),
			})
		}
	}
	return seen
}

// parseWith parses pre's stream piece by piece, splicing from memo, or as
// one stream when memo is nil. It returns the rendering.
func parseWith(name string, pre *cpp.Result, memo *cparser.HeaderDecls) string {
	p := cparser.New(pre.Stream())
	if memo != nil {
		p = cparser.NewWithHeaders(pre, memo)
	}
	return printer(nil).file(p.ParseFile(name), p.Errors())
}

// treeSet is a generated kernel-shaped tree as the analyzer loads one:
// the miniature kernel headers, the tree's headers and every other config
// symbol defined.
func treeSet(n int, seed int64) (cpp.Options, []srcFile) {
	tr := sitegen.GenerateTree(sitegen.DefaultTreeSpec(n, seed))
	opts := cpp.Options{Include: kernelhdr.Headers(), Defines: map[string]string{}, Syms: ctoken.NewSymTab()}
	for _, h := range tr.Headers {
		opts.Include[h.Name] = h.Src
	}
	for i, c := range tr.Configs {
		if i%2 == 0 {
			opts.Defines[c] = "1"
		}
	}
	var files []srcFile
	for _, f := range tr.Files {
		files = append(files, srcFile{f.Name, f.Src})
	}
	return opts, files
}

// declHeaders and declRoots are the fixtures of the cases the memo's key
// and validity rule have to get right.
var declHeaders = map[string]string{
	// Struct fields, included inside a struct body.
	"fields.h": "int a;\nint b;\n",
	// Ends mid-declaration: its includer closes the struct.
	"open.h": "struct open_s {\n\tint x;\n",
	// A parse error between two good declarations.
	"bad.h": "int before;\n) ) ;\nint after;\n",
	// foo_t *p is a declaration only after the includer made foo_t a
	// typedef.
	"uses_td.h": "foo_t *p;\nint q;\n",
	// A typedef its includers use.
	"defs_td.h": "typedef struct bar { int v; } bar_t;\n",
	// A nested include whose typedef the outer header uses.
	"outer.h": "#include \"inner.h\"\nstruct outer { inner_t i; };\n",
	"inner.h": "#ifndef INNER_H\n#define INNER_H\ntypedef int inner_t;\n#endif\n",
	// Ends with a function definition.
	"fn.h": "static inline int get(int *p) { return *p; }\n",
	// Includes a file that is itself a root: never replayed there.
	"cycle.h":      "#include \"root_cycle.c\"\nint in_cycle;\n",
	"root_cycle.c": "#include \"cycle.h\"\nint root_cycle;\n",
}

var declRoots = []srcFile{
	{"in_struct.c", "struct s {\n#include \"fields.h\"\n};\nint after_s;\n"},
	{"open.c", "#include \"open.h\"\n\tint y;\n};\nint z;\n"},
	{"bad.c", "#include \"bad.h\"\nint c;\n"},
	// One header under three typedef histories; the first parses it
	// differently from the other two.
	{"td_before.c", "typedef int foo_t;\n#include \"uses_td.h\"\n"},
	{"td_none.c", "#include \"uses_td.h\"\n"},
	{"td_other.c", "typedef long baz_t;\n#include \"uses_td.h\"\nbaz_t r;\n"},
	{"hdr_td.c", "#include \"defs_td.h\"\nbar_t *g;\nvoid f(void) { bar_t x; x.v = 1; }\n"},
	{"hdr_td2.c", "#include \"defs_td.h\"\nbar_t *h;\n"},
	{"nested.c", "#include \"outer.h\"\ninner_t n;\n"},
	{"nested2.c", "#include \"outer.h\"\n#include \"inner.h\"\ninner_t m;\n"},
	{"fn.c", "#include \"fn.h\"\nint main(void) { return get(0); }\n"},
	{"two.c", "#include \"defs_td.h\"\n#include \"uses_td.h\"\n"},
	// Own declarations that end just before an include.
	{"before_inc.c", "int a;\n#include \"defs_td.h\"\nvoid g(void) { }\n#include \"fields.h\"\nstruct t { int c; };\n#include \"fn.h\"\n"},
	{"root_cycle.c", declHeaders["root_cycle.c"]},
	{"other_cycle.c", "#include \"cycle.h\"\nint other;\n"},
}

// firstPassReplays are the fixtures that meet an include after the same
// macro and typedef history as an earlier fixture did; neverReplays are
// those whose include is not at a declaration boundary or ends inside a
// declaration, and so are parsed as the joined stream, and the one whose
// header opens the root, which is expanded in place.
var (
	firstPassReplays = map[string]bool{"hdr_td2.c": true, "nested2.c": true, "two.c": true, "before_inc.c": true}
	neverReplays     = map[string]bool{"in_struct.c": true, "open.c": true, "root_cycle.c": true}
	rejoins          = map[string]bool{"in_struct.c": true, "open.c": true}
)

// TestHeaderDeclsMatchFreshParser checks the memo's parses against a
// fresh parser: on fixtures for each case of the key and the validity
// rule, on generated bench trees, on the corpus and on the paper fixtures.
func TestHeaderDeclsMatchFreshParser(t *testing.T) {
	t.Run("fixtures", func(t *testing.T) {
		opts := cpp.Options{Include: declHeaders}
		seen := diffMemo(t, opts, declRoots, 2)
		for i, f := range declRoots {
			if got, want := seen[0][i].replayed > 0, firstPassReplays[f.name]; got != want {
				t.Errorf("%s: spliced %d declarations on the first pass; want splices %t", f.name, seen[0][i].replayed, want)
			}
			if got, want := seen[1][i].replayed > 0, !neverReplays[f.name]; got != want {
				t.Errorf("%s: spliced %d declarations on the second pass; want splices %t", f.name, seen[1][i].replayed, want)
			}
			for pass := range seen {
				if got, want := seen[pass][i].rejoined, rejoins[f.name]; got != want {
					t.Errorf("pass %d, %s: parsed the joined stream %t, want %t", pass, f.name, got, want)
				}
			}
			// A file that never splices parses everything in its own arena,
			// so a header parse it threw away must not count.
			for pass := range seen {
				if mp := seen[pass][i]; neverReplays[f.name] && mp.arena != mp.fresh {
					t.Errorf("pass %d, %s: arena bytes %d with the memo, %d without", pass, f.name, mp.arena, mp.fresh)
				}
			}
		}
		// The typedef history matters: uses_td.h parses cleanly only after
		// foo_t became a typedef.
		env := cpp.NewEnv(opts)
		errs := map[string]int{}
		for _, f := range declRoots[3:5] {
			p := cparser.New(env.PreprocessCtx(context.Background(), f.name, f.src).Stream())
			p.ParseFile(f.name)
			errs[f.name] = len(p.Errors())
		}
		if errs["td_before.c"] != 0 || errs["td_none.c"] == 0 {
			t.Errorf("uses_td.h parse errors by includer: %v; want none only after the typedef", errs)
		}
	})
	t.Run("variants", func(t *testing.T) {
		// One header after more typedef histories than it keeps variants
		// of: past the bound, every file parses it as a piece of its own.
		var files []srcFile
		for i := range 20 {
			files = append(files, srcFile{fmt.Sprintf("v%02d.c", i), fmt.Sprintf("typedef int t%d;\n#include \"h.h\"\nint x%d;\n", i, i)})
		}
		opts := cpp.Options{Include: map[string]string{"h.h": "struct h { int a; };\nint g(void);\n"}}
		seen := diffMemo(t, opts, files, 2)
		for i, f := range files {
			if got, want := seen[1][i].replayed > 0, i < 16; got != want {
				t.Errorf("%s: spliced %d declarations on the second pass; want splices %t", f.name, seen[1][i].replayed, want)
			}
			if seen[0][i].rejoined || seen[1][i].rejoined {
				t.Errorf("%s: parsed the joined stream", f.name)
			}
		}
	})
	trees := []int64{1, 2, 3}
	n := 2048
	if testing.Short() {
		trees, n = trees[:1], 256
	}
	for _, seed := range trees {
		t.Run(fmt.Sprintf("tree%d_seed%d", n, seed), func(t *testing.T) {
			opts, files := treeSet(n, seed)
			seen := diffMemo(t, opts, files, 1)[0]
			if total := sum(seen, func(mp memoParse) int64 { return int64(mp.replayed) }); total == 0 {
				t.Error("no declaration spliced")
			}
			// The header pieces of every file parse as they are, and the
			// files keep little of the stream as their own tokens.
			if n := sum(seen, func(mp memoParse) int64 { return b2i(mp.rejoined) }); n != 0 {
				t.Errorf("%d files parsed the joined stream", n)
			}
			own, stream := sum(seen, func(mp memoParse) int64 { return int64(mp.own) }), sum(seen, func(mp memoParse) int64 { return int64(mp.stream) })
			if own*10 > stream {
				t.Errorf("own tokens %d of a %d-token stream; want at most 10%%", own, stream)
			}
			// Header declarations count once, in the file that recorded them.
			arena, fresh := sum(seen, func(mp memoParse) int64 { return mp.arena }), sum(seen, func(mp memoParse) int64 { return mp.fresh })
			if arena >= fresh/2 {
				t.Errorf("arena bytes %d with the memo, %d without; want less than half", arena, fresh)
			}
		})
	}
	t.Run("corpus", func(t *testing.T) {
		var files []srcFile
		for _, f := range corpus.Generate(corpus.DefaultConfig(1)).Sources() {
			files = append(files, srcFile{f.Name, f.Src})
		}
		seen := diffMemo(t, cpp.Options{Include: kernelhdr.Headers()}, files, 1)[0]
		if total := sum(seen, func(mp memoParse) int64 { return int64(mp.replayed) }); total == 0 {
			t.Error("no declaration spliced")
		}
		if n := sum(seen, func(mp memoParse) int64 { return b2i(mp.rejoined) }); n != 0 {
			t.Errorf("%d files parsed the joined stream", n)
		}
	})
	t.Run("paper_fixtures", func(t *testing.T) {
		var files []srcFile
		for _, fx := range corpus.Fixtures() {
			files = append(files, srcFile{fx.Name, fx.Source})
			if fx.Fixed != "" {
				files = append(files, srcFile{fx.Name, fx.Fixed})
			}
		}
		// The fixtures include no headers: this checks that the memo leaves
		// header-free files alone.
		diffMemo(t, cpp.Options{Include: kernelhdr.Headers()}, files, 2)
	})
}

// TestHeaderDeclsConcurrent parses a tree through one Env and one memo
// from several goroutines, as analysis workers do, and checks every parse
// against a fresh parser. Run under -race it checks the memo's locking.
func TestHeaderDeclsConcurrent(t *testing.T) {
	opts, files := treeSet(96, 5)
	env := cpp.NewEnv(opts)
	memo := cparser.NewHeaderDecls()
	pres := make([]*cpp.Result, len(files))
	got := make([]string, len(files))
	var wg sync.WaitGroup
	const workers = 4
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(files); i += workers {
				pres[i] = env.PreprocessCtx(context.Background(), files[i].name, files[i].src)
				got[i] = parseWith(files[i].name, pres[i], memo)
			}
		}()
	}
	wg.Wait()
	for i, f := range files {
		if want := parseWith(f.name, pres[i], nil); got[i] != want {
			t.Errorf("%s: the memo's parse differs from a fresh parser", f.name)
		}
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// sum adds up f over parses.
func sum(parses []memoParse, f func(memoParse) int64) int64 {
	var total int64
	for _, mp := range parses {
		total += f(mp)
	}
	return total
}

// FuzzHeaderDeclReplay checks the memo on unseen inputs: two headers and
// two roots parsed through one Env and one memo, round after round, must
// give what a fresh parser gives over the same tokens.
func FuzzHeaderDeclReplay(f *testing.F) {
	h := declHeaders
	f.Add(h["uses_td.h"], h["defs_td.h"], declRoots[3].src, "#include \"a.h\"\n#include \"b.h\"\n")
	f.Add(h["open.h"], h["bad.h"], "#include \"a.h\"\nint y; };\n", "#include \"b.h\"\n#include \"a.h\"\n};\n")
	f.Add(h["fields.h"], h["fn.h"], "struct s {\n#include \"a.h\"\n};\n#include \"b.h\"\n", "#include \"a.h\"\n#include \"b.h\"\n")
	f.Add("typedef int a_t;\n", "a_t *x;\nint y;\n", "#include \"b.h\"\n#include \"a.h\"\n#include \"b.h\"\n", "#include \"a.h\"\n#include \"b.h\"\n")
	f.Add("#include \"b.h\"\nstruct o { b_t v; };\n", "typedef long b_t;\n", "#include \"a.h\"\n", "typedef char b_t;\n#include \"a.h\"\n")
	f.Add("int f(void)", "{ return 0; }\n", "#include \"a.h\"\n#include \"b.h\"\n", "#include \"a.h\"\n;\n")
	f.Add("enum e { A, B", "};\n", "#include \"a.h\"\n#include \"b.h\"\n", "#include \"a.h\"\n}\n;")
	f.Fuzz(func(t *testing.T, ha, hb, r1, r2 string) {
		opts := cpp.Options{Include: map[string]string{"a.h": ha, "b.h": hb}}
		diffMemo(t, opts, []srcFile{{"r1.c", r1}, {"r2.c", r2}}, 3)
	})
}

// doneAfter is a context whose Err reports context.Canceled from its n-th
// call on.
type doneAfter struct {
	context.Context
	n int
}

func (c *doneAfter) Err() error {
	if c.n--; c.n <= 0 {
		return context.Canceled
	}
	return nil
}

// TestParseFileCtxCanceled parses a file with a top-level include under a
// context that is done once the header is parsed: the parse must return
// the context's error and record no header parse, so the next file parses
// the header itself.
func TestParseFileCtxCanceled(t *testing.T) {
	env := cpp.NewEnv(cpp.Options{Include: map[string]string{"h.h": "struct h { int a; };\nint g(void);\n"}})
	memo := cparser.NewHeaderDecls()
	parse := func(ctx context.Context, name string) (*cparser.Parser, error) {
		pre := env.PreprocessCtx(context.Background(), name, "#include \"h.h\"\nint f(void) { return 0; }\n")
		p := cparser.NewWithHeaders(pre, memo)
		_, err := p.ParseFileCtx(ctx, name)
		return p, err
	}
	// One poll per header declaration, then the one before f.
	if _, err := parse(&doneAfter{context.Background(), 3}, "a.c"); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	p, err := parse(context.Background(), "b.c")
	if err != nil {
		t.Fatal(err)
	}
	if p.DeclsReplayed() != 0 {
		t.Errorf("%d declarations replayed after a canceled parse, want 0", p.DeclsReplayed())
	}
}
