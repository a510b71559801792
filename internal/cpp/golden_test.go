package cpp

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"ofence/internal/ctoken"
)

// preprocessCorpus exercises the directive splitter's corner cases: null
// directives, malformed directives, continuations, conditionals, and macro
// machinery.
var preprocessCorpus = []string{
	"",
	"int x;\n",
	"#define A 1\nint v = A;\n",
	"#define SQ(x) ((x)*(x))\nint v = SQ(2+3);\n",
	"#define CAT(a,b) a##b\nint CAT(foo,bar) = 1;\n",
	"#define STR(x) #x\nchar *s = STR(hello world);\n",
	"#define V(...) f(__VA_ARGS__)\nV(1,2,3);\n",
	"#\n# \n#!\n#1\n# # x\n",
	"#if defined(FOO) && (1 + 2 > 2)\nint a;\n#elif 0\nint b;\n#else\nint c;\n#endif\n",
	"#ifdef MISSING\nbroken {\n#endif\nint ok;\n",
	"#define X 1 \\\n + 2\nint v = X;\n",
	"#include \"inc.h\"\nint after;\n",
	"#include <a/b.h>\n",
	"#error in dead branch\n",
	"#if 1\n#error live\n#endif\n",
	"#pragma once\n#unknown dir\n",
	"#undef A\n#define A(x x\nA(1)\n",
	"int unterminated = \"str\n#define B 2\nint b = B;\n",
	"#if (3 % 0)\nint z;\n#endif\n",
}

// goldenOptions puts includes, defines and interning in play.
func goldenOptions() Options {
	return Options{
		Include: map[string]string{"inc.h": "#define FROM_INC 7\nint inc_var = FROM_INC;\n"},
		Defines: map[string]string{"CONFIG_SMP": "1"},
		Syms:    ctoken.NewSymTab(),
	}
}

// preprocessRecord preprocesses src under goldenOptions and renders the
// golden record of the run: the SHA-256 over every token (kind, text,
// position), every diagnostic and the fingerprint, plus counts.
func preprocessRecord(src string) string {
	res := Preprocess("diff.c", src, goldenOptions())
	h := sha256.New()
	for _, tok := range res.Tokens {
		fmt.Fprintf(h, "%d %q %s\n", tok.Kind, tok.Text, tok.Pos)
	}
	for _, err := range res.Errors {
		fmt.Fprintf(h, "error %s\n", err)
	}
	fmt.Fprintf(h, "fingerprint %s\n", res.Fingerprint())
	return fmt.Sprintf("%x tokens=%d errors=%d", h.Sum(nil), len(res.Tokens), len(res.Errors))
}

// TestPreprocessScannerMatchesLegacy pins the preprocessor's output on the
// corpus to testdata/preprocess.golden. The records were produced by the
// retired rune-lexer path and by the scanner path, which agreed on every
// one; there is no update flag — an intended change is a reviewed edit of
// the file, using the observed line a failure prints.
func TestPreprocessScannerMatchesLegacy(t *testing.T) {
	f, err := os.Open("testdata/preprocess.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	goldens := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			name, rec, _ := strings.Cut(line, " ")
			goldens[name] = rec
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for i, src := range preprocessCorpus {
		name := fmt.Sprintf("case%02d", i)
		if got, want := preprocessRecord(src), goldens[name]; got != want {
			t.Errorf("preprocessor output moved from the golden record\n want: %s %s\n  got: %s %s",
				name, want, name, got)
		}
	}
}
