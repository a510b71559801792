package cpp_test

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"ofence/internal/cast"
	"ofence/internal/corpus"
	"ofence/internal/cparser"
	"ofence/internal/cpp"
	"ofence/internal/ctoken"
	"ofence/internal/kernelhdr"
	"ofence/internal/obs"
	"ofence/internal/sitegen"
)

// srcFile is one root file of a differential set.
type srcFile struct{ name, src string }

// counted preprocesses one file through env and returns the result with
// the includes_replayed and includes_recorded counters of its span.
func counted(env *cpp.Env, f srcFile) (res *cpp.Result, replayed, recorded int64) {
	tr := obs.New()
	res = env.PreprocessCtx(obs.WithTracer(context.Background(), tr), f.name, f.src)
	for _, c := range tr.Roots()[0].Counters() {
		switch c.Name {
		case "includes_replayed":
			replayed = c.Value
		case "includes_recorded":
			recorded = c.Value
		}
	}
	return res, replayed, recorded
}

// sameResult fails t unless got, from a shared Env, is what the oracle
// want, from a fresh one, is: tokens, diagnostics, final macro table and
// fingerprint, and the parse of got's pieces the parse of want's tokens.
func sameResult(t *testing.T, file string, got, want *cpp.Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Stream(), want.Tokens) {
		t.Errorf("%s: tokens differ from a fresh Env (%d vs %d tokens)", file, got.Len(), len(want.Tokens))
	}
	if want.Len() != len(want.Tokens) {
		t.Errorf("%s: a fresh Env's tokens are not the whole stream", file)
	}
	pieces(t, file, got)
	if g, w := fmt.Sprint(got.Errors), fmt.Sprint(want.Errors); g != w {
		t.Errorf("%s: errors differ from a fresh Env\n got: %s\nwant: %s", file, g, w)
	}
	if !reflect.DeepEqual(got.Macros, want.Macros) {
		t.Errorf("%s: macro table differs from a fresh Env", file)
	}
	if g, w := got.Fingerprint(), want.Fingerprint(); g != w {
		t.Errorf("%s: fingerprint %s, fresh Env %s", file, g, w)
	}
	if g, w := parse(file, cparser.NewWithHeaders(got, nil)), parse(file, cparser.New(want.Tokens)); g != w {
		t.Errorf("%s: the parse of the pieces differs from the parse of a fresh Env's tokens\n got: %s\nwant: %s", file, g, w)
	}
}

// parse renders what p parses of file: every top-level declaration with
// its position, and the diagnostics.
func parse(file string, p *cparser.Parser) string {
	var b strings.Builder
	f := p.ParseFile(file)
	fmt.Fprintf(&b, "@%v\n", f.Position)
	for _, d := range f.Decls {
		fmt.Fprintf(&b, "%T @%v\n%s\n", d, d.Pos(), cast.Print(d))
	}
	for _, err := range p.Errors() {
		fmt.Fprintf(&b, "error: %v\n", err)
	}
	return b.String()
}

// pieces fails t unless res's Includes describe its stream: in order,
// non-empty, an include expanded in place within Tokens and a replayed
// one at a position of Tokens.
func pieces(t *testing.T, file string, res *cpp.Result) {
	t.Helper()
	at := 0
	for _, inc := range res.Includes {
		end := inc.At
		if !inc.Spliced {
			end += len(inc.Toks)
		}
		switch {
		case len(inc.Toks) == 0 || inc.At < at || end > len(res.Tokens):
			t.Fatalf("%s: include at %d of %d tokens out of order or out of range", file, inc.At, len(inc.Toks))
		case !inc.Spliced && !reflect.DeepEqual(inc.Toks, res.Tokens[inc.At:end]):
			t.Fatalf("%s: include at %d differs from the tokens it covers", file, inc.At)
		}
		at = end
	}
}

// passCounts are one pass's includes_replayed and includes_recorded
// counters, per file and summed.
type passCounts struct {
	replayed, recorded       []int64
	sumReplayed, sumRecorded int64
}

// diffShared preprocesses files through one shared Env, in order, passes
// times over, and checks every result against a fresh Env per file.
func diffShared(t *testing.T, opts func() cpp.Options, files []srcFile, passes int) []passCounts {
	t.Helper()
	oracle := make([]*cpp.Result, len(files))
	for i, f := range files {
		oracle[i] = cpp.NewEnv(opts()).PreprocessCtx(context.Background(), f.name, f.src)
	}
	env := cpp.NewEnv(opts())
	counts := make([]passCounts, passes)
	for pass := range counts {
		c := &counts[pass]
		for i, f := range files {
			res, rep, rec := counted(env, f)
			sameResult(t, f.name, res, oracle[i])
			c.replayed = append(c.replayed, rep)
			c.recorded = append(c.recorded, rec)
			c.sumReplayed += rep
			c.sumRecorded += rec
		}
	}
	return counts
}

// treeSet is a generated kernel-shaped tree as the analyzer loads one: the
// miniature kernel headers, the tree's headers and every other config
// symbol defined.
func treeSet(n int, seed int64) (func() cpp.Options, []srcFile) {
	tr := sitegen.GenerateTree(sitegen.DefaultTreeSpec(n, seed))
	include := kernelhdr.Headers()
	for _, h := range tr.Headers {
		include[h.Name] = h.Src
	}
	defines := map[string]string{}
	for i, c := range tr.Configs {
		if i%2 == 0 {
			defines[c] = "1"
		}
	}
	syms := ctoken.NewSymTab()
	opts := func() cpp.Options { return cpp.Options{Include: include, Defines: defines, Syms: syms} }
	var files []srcFile
	for _, f := range tr.Files {
		files = append(files, srcFile{f.Name, f.Src})
	}
	return opts, files
}

func kernelOptions() cpp.Options { return cpp.Options{Include: kernelhdr.Headers()} }

// replayHeaders and replayRoots are the fixtures of the cases the memo's
// key and validity rule have to get right.
var replayHeaders = map[string]string{
	// Reads MODE (#ifdef) and LEVEL (expansion) from its includer.
	"reads.h": "#ifdef MODE\nint mode_on;\n#else\nint mode_off;\n#endif\nint level = LEVEL;\n",
	// Reads nothing its includers define.
	"plain.h": "struct plain { int a; };\nint plain_var;\n",
	// Reads FEATURE only through defined().
	"defined.h": "#if defined(FEATURE)\nint feature_on;\n#endif\n",
	// Reads SCALE only while expanding the argument of its own macro.
	"args.h": "#define WRAP(x) (x)\nint w = WRAP(SCALE);\n",
	// Reads TMP, which includers #undef between two includes.
	"undef.h": "#ifdef TMP\nint tmp_on;\n#else\nint tmp_off;\n#endif\n#define FROM_UNDEF_H 1\n",
	// Includes a file that is itself a root.
	"cycle.h":      "#include \"root_cycle.c\"\nint in_cycle;\n",
	"root_cycle.c": "#include \"cycle.h\"\nint root_cycle;\n",
	"guard.h":      "#ifndef GUARD_H\n#define GUARD_H\nint guarded;\n#endif\n",
	"unguarded.h":  "int unguarded_count;\n",
	// A scanner error (unterminated string) between directive errors.
	"errs.h": "#if 1/0\n#endif\nchar *s = \"unterminated\n#error boom\nint after_err;\n",
	// A nested include, so the segment spans two files.
	"outer.h": "#include \"guard.h\"\nint outer;\n",
}

var replayRoots = []srcFile{
	{"mode_a.c", "#define MODE 1\n#define LEVEL 3\n#include \"reads.h\"\nint a;\n"},
	{"mode_b.c", "#define LEVEL 4\n#include \"reads.h\"\nint b;\n"},
	{"unread_a.c", "#define pr_fmt(fmt) \"a: \" fmt\n#include \"plain.h\"\nint ua;\n"},
	{"unread_b.c", "#define pr_fmt(fmt) \"b: \" fmt\n#include \"plain.h\"\nint ub;\n"},
	// unread_a.c's define on another line with other spacing: the same
	// history, so plain.h replays.
	{"unread_c.c", "\n#define pr_fmt(fmt)  \"a: \"   fmt\n#include \"plain.h\"\nint uc;\n"},
	// Defines a name plain.h only uses as an identifier.
	{"shadow.c", "#define a renamed\n#include \"plain.h\"\n"},
	{"defined_a.c", "#define FEATURE\n#include \"defined.h\"\n"},
	{"defined_b.c", "#include \"defined.h\"\n"},
	{"args_a.c", "#define SCALE 2\n#include \"args.h\"\n"},
	{"args_b.c", "#include \"args.h\"\n"},
	{"undef.c", "#define TMP 1\n#include \"undef.h\"\n#undef TMP\n#include \"undef.h\"\nint t = FROM_UNDEF_H;\n"},
	{"root_cycle.c", replayHeaders["root_cycle.c"]},
	{"other_cycle.c", "#include \"cycle.h\"\nint other;\n"},
	{"twice.c", "#include \"guard.h\"\n#include \"guard.h\"\n#include \"unguarded.h\"\n#include \"unguarded.h\"\n"},
	{"errs.c", "#include \"errs.h\"\nint e;\n"},
	// guard.h after GUARD_H is defined, as in twice.c: replays.
	{"outer.c", "#include \"outer.h\"\n#include \"guard.h\"\n"},
}

// replaysOnFirstPass are the fixtures that include a header after the
// same #define/#undef history as an earlier fixture did.
var replaysOnFirstPass = map[string]bool{"unread_c.c": true, "outer.c": true}

func replayOptions() cpp.Options {
	return cpp.Options{Include: replayHeaders, Defines: map[string]string{"CONFIG_SMP": "1"}}
}

// TestSharedEnvMatchesFreshEnv preprocesses input sets through one shared
// Env and checks every file against a fresh Env, which never replays. The
// fixtures exercise each case of the key and the validity rule; the tree,
// the corpus, the paper fixtures and the preprocess.golden inputs cover
// realistic files.
func TestSharedEnvMatchesFreshEnv(t *testing.T) {
	t.Run("fixtures", func(t *testing.T) {
		counts := diffShared(t, replayOptions, replayRoots, 2)
		for i, f := range replayRoots {
			if got, want := counts[0].replayed[i] > 0, replaysOnFirstPass[f.name]; got != want {
				t.Errorf("%s: replayed %d includes on the first pass; want replays %t", f.name, counts[0].replayed[i], want)
			}
			// The second pass finds every variant recorded.
			replayed, recorded := counts[1].replayed[i], counts[1].recorded[i]
			switch {
			case f.name == "root_cycle.c":
				// cycle.h tries to open the root: never replayed there.
				if replayed != 0 {
					t.Errorf("%s: replayed %d includes of a header that opens the root", f.name, replayed)
				}
			case replayed == 0 || recorded != 0:
				t.Errorf("%s: replayed %d, recorded %d on the second pass; want every include replayed", f.name, replayed, recorded)
			}
		}
	})
	t.Run("tree256", func(t *testing.T) {
		opts, files := treeSet(256, 3)
		c := diffShared(t, opts, files, 1)[0]
		// One recording per header variant, not one per file.
		if c.sumReplayed == 0 || c.sumRecorded == 0 || c.sumRecorded > 64 {
			t.Errorf("tree: replayed %d, recorded %d; want replays and at most a few dozen recordings", c.sumReplayed, c.sumRecorded)
		}
	})
	t.Run("corpus", func(t *testing.T) {
		var files []srcFile
		for _, f := range corpus.Generate(corpus.DefaultConfig(1)).Sources() {
			files = append(files, srcFile{f.Name, f.Src})
		}
		if c := diffShared(t, kernelOptions, files, 1)[0]; c.sumReplayed == 0 {
			t.Error("corpus: no include replayed")
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
		// The fixtures include no headers, so nothing replays: this checks
		// that a shared Env leaves header-free files alone.
		diffShared(t, kernelOptions, files, 2)
	})
	t.Run("golden_inputs", func(t *testing.T) {
		syms := ctoken.NewSymTab()
		opts := func() cpp.Options {
			o := cpp.GoldenOptions()
			o.Syms = syms
			return o
		}
		var files []srcFile
		for i, src := range cpp.PreprocessCorpus {
			files = append(files, srcFile{fmt.Sprintf("case%02d.c", i), src})
		}
		if c := diffShared(t, opts, files, 2)[1]; c.sumReplayed == 0 {
			t.Error("golden inputs: no include replayed")
		}
	})
}

// TestSharedEnvConcurrent preprocesses a tree through one Env from several
// goroutines, as analysis workers do, and checks every result against a
// fresh Env. Run under -race it checks the memo's locking.
func TestSharedEnvConcurrent(t *testing.T) {
	opts, files := treeSet(96, 5)
	env := cpp.NewEnv(opts())
	got := make([]*cpp.Result, len(files))
	var wg sync.WaitGroup
	const workers = 4
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(files); i += workers {
				got[i] = env.PreprocessCtx(context.Background(), files[i].name, files[i].src)
			}
		}()
	}
	wg.Wait()
	for i, f := range files {
		sameResult(t, f.name, got[i], cpp.NewEnv(opts()).PreprocessCtx(context.Background(), f.name, f.src))
	}
}

// FuzzIncludeReplay checks the memo on unseen inputs: two headers and two
// roots preprocessed through one Env, round after round, must give what a
// fresh Env per file gives. The first root is also includable, so headers
// can try to open a root.
func FuzzIncludeReplay(f *testing.F) {
	h := replayHeaders
	f.Add(h["reads.h"], h["plain.h"], replayRoots[0].src, replayRoots[1].src)
	f.Add(h["plain.h"], h["undef.h"], "#define pr_fmt(x) x\n#include \"a.h\"\n", "#define TMP\n#include \"b.h\"\n#undef TMP\n#include \"b.h\"\n")
	f.Add("#include \"r1.c\"\nint in_a;\n", h["guard.h"], "#include \"a.h\"\nint r1;\n", "#include \"a.h\"\n#include \"b.h\"\n#include \"b.h\"\n")
	f.Add(h["defined.h"], h["args.h"], "#define FEATURE\n#include \"a.h\"\n#include \"b.h\"\n", "#define SCALE 3\n#include \"a.h\"\n#include \"b.h\"\n")
	f.Add(h["errs.h"], h["unguarded.h"], "#include \"a.h\"\n#include \"b.h\"\n#include \"b.h\"\n", "#define LEVEL 2\n#include \"a.h\"\n")
	f.Add("#define A(x) x+B\n#include \"b.h\"\n", "#ifndef B\n#define B 1\n#endif\nint v = A(B);\n", "#define B 2\n#include \"a.h\"\n", "#include \"a.h\"\nint w = A(3);\n")
	f.Add("int x = E(;\n", h["plain.h"], "#define E(a) a\n#include \"a.h\"\n", "\n\n#define E(a)   a\n#include \"a.h\"\n")
	f.Fuzz(func(t *testing.T, ha, hb, r1, r2 string) {
		opts := func() cpp.Options {
			return cpp.Options{Include: map[string]string{"a.h": ha, "b.h": hb, "r1.c": r1}}
		}
		roots := []srcFile{{"r1.c", r1}, {"r2.c", r2}}
		oracle := make([]*cpp.Result, len(roots))
		for i, r := range roots {
			oracle[i] = cpp.NewEnv(opts()).PreprocessCtx(context.Background(), r.name, r.src)
		}
		env := cpp.NewEnv(opts())
		for range 3 {
			for i, r := range roots {
				sameResult(t, r.name, env.PreprocessCtx(context.Background(), r.name, r.src), oracle[i])
			}
		}
	})
}
