package cpp

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"testing"

	"ofence/internal/ctoken"
)

// span is the range toks[at:at+n] of a stream that one top-level include
// emitted.
type span struct{ at, n int }

// fingerprintOf computes a fingerprint from its definition (see
// Result.Fingerprint), independently of the preprocessor's streaming: the
// file name, an item per token of toks except that each include's tokens
// make one item, a newline and the SHA-256 of their items, and then the
// diagnostics.
func fingerprintOf(file string, toks []ctoken.Token, incs []span, errs []error) string {
	items := func(w io.Writer, toks []ctoken.Token) {
		for _, t := range toks {
			fmt.Fprintf(w, "%s\x00%s:%d:%d\n", t.Text, t.Pos.File, t.Pos.Line, t.Pos.Col)
		}
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00", file)
	last := 0
	for _, inc := range incs {
		items(h, toks[last:inc.at])
		sub := sha256.New()
		items(sub, toks[inc.at:inc.at+inc.n])
		fmt.Fprintf(h, "\n%s", sub.Sum(nil))
		last = inc.at + inc.n
	}
	items(h, toks[last:])
	for _, err := range errs {
		fmt.Fprintf(h, "E%s\x00", err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// spans returns the spans of a fresh Env's res, whose includes are all
// expanded in Tokens.
func spans(res *Result) []span {
	var out []span
	for _, inc := range res.Includes {
		out = append(out, span{inc.At, len(inc.Toks)})
	}
	return out
}

// TestFingerprintStreamedMatchesRecomputed checks the digest streamed
// during preprocessing against one computed from the definition, for a
// file with macros, includes (one nested) and diagnostics, and that the
// file name is part of it.
func TestFingerprintStreamedMatchesRecomputed(t *testing.T) {
	opts := Options{Include: map[string]string{
		"h.h":     "#define G 3\nint h = G;\n",
		"outer.h": "#include \"h.h\"\nint outer;\n",
	}}
	src := "#define F(x) (x+1)\n#include \"h.h\"\nint v = F(F(2));\n#include \"outer.h\"\nbad @\n"
	res := Preprocess("a.c", src, opts)
	if len(res.Includes) != 2 || len(res.Errors) == 0 {
		t.Fatalf("%d includes, errors %v; want 2 and a diagnostic", len(res.Includes), res.Errors)
	}
	if got, want := res.Fingerprint(), fingerprintOf("a.c", res.Tokens, spans(res), res.Errors); got != want {
		t.Fatalf("streamed fingerprint %s, from the definition %s", got, want)
	}
	if other := Preprocess("b.c", src, opts).Fingerprint(); other == res.Fingerprint() {
		t.Fatalf("fingerprint ignored the file name")
	}
}

// run preprocesses one file through env and fails t unless it replayed and
// recorded as many top-level includes as expected.
func run(t *testing.T, env *Env, file, src string, replayed, recorded int) *Result {
	t.Helper()
	res, rep, rec, _ := env.preprocess(context.Background(), file, src)
	if rep != replayed || rec != recorded {
		t.Fatalf("%s: replayed %d, recorded %d includes; want %d and %d", file, rep, rec, replayed, recorded)
	}
	return res
}

// fillVariants has env record variants of header h, one per #define
// history, until it holds maxVariants of them, so that a further history
// expands h in place.
func fillVariants(t *testing.T, env *Env, h string) {
	t.Helper()
	for i := env.variants[h]; i < maxVariants; i++ {
		run(t, env, fmt.Sprintf("fill%d.c", i), fmt.Sprintf("#define FILL%d\n#include %q\n", i, h), 0, 1)
	}
}

// TestFingerprintSameForEveryIncludePath checks that a top-level include
// enters the fingerprint the same way however the Env handles it: recorded,
// replayed, expanded in place past maxVariants or because it opens the
// root, and under a fresh Env; and that this is the fingerprint's
// definition.
func TestFingerprintSameForEveryIncludePath(t *testing.T) {
	opts := Options{Include: map[string]string{
		"h.h":     "int h_a;\n#define FROM_H 1\nint h_b = FROM_H;\n",
		"cycle.h": "#include \"r.c\"\nint in_cycle;\n",
		"r.c":     "#include \"cycle.h\"\nint r;\n",
	}}
	const src = "#define BEFORE 2\n#include \"h.h\"\nint own = FROM_H + BEFORE;\n@\n"
	fresh := NewEnv(opts)
	want := run(t, fresh, "a.c", src, 0, 1)
	if def := fingerprintOf("a.c", want.Tokens, spans(want), want.Errors); want.Fingerprint() != def {
		t.Fatalf("fresh Env: fingerprint %s, from the definition %s", want.Fingerprint(), def)
	}
	env := NewEnv(opts)
	for _, c := range []struct {
		path               string
		replayed, recorded int
	}{{"recorded", 0, 1}, {"replayed", 1, 0}} {
		if got := run(t, env, "a.c", src, c.replayed, c.recorded).Fingerprint(); got != want.Fingerprint() {
			t.Errorf("%s: fingerprint %s, fresh Env %s", c.path, got, want.Fingerprint())
		}
	}
	env = NewEnv(opts)
	fillVariants(t, env, "h.h")
	if got := run(t, env, "a.c", src, 0, 0).Fingerprint(); got != want.Fingerprint() {
		t.Errorf("in place past maxVariants: fingerprint %s, fresh Env %s", got, want.Fingerprint())
	}

	// r.c includes cycle.h, which includes r.c: a fresh Env records the
	// include without publishing it, an Env where another file recorded
	// cycle.h expands it in place.
	rsrc := opts.Include["r.c"]
	wantR := run(t, NewEnv(opts), "r.c", rsrc, 0, 1)
	if def := fingerprintOf("r.c", wantR.Tokens, []span{{0, 3}}, wantR.Errors); wantR.Fingerprint() != def || renderTokens(wantR.Tokens[:3]) != "int in_cycle ;" {
		t.Fatalf("root cycle, fresh Env: tokens %q, fingerprint %s, from the definition %s", renderTokens(wantR.Tokens), wantR.Fingerprint(), def)
	}
	env = NewEnv(opts)
	run(t, env, "o.c", "#include \"cycle.h\"\nint o;\n", 0, 1)
	if got := run(t, env, "r.c", rsrc, 0, 0).Fingerprint(); got != wantR.Fingerprint() {
		t.Errorf("root cycle in place: fingerprint %s, fresh Env %s", got, wantR.Fingerprint())
	}
}

// TestFingerprintTracksHeaderTokens checks that changing one token, or
// one token's position, inside a header changes the fingerprint of every
// file that includes it, whether the file records the include, replays it
// or expands it in place.
func TestFingerprintTracksHeaderTokens(t *testing.T) {
	const base = "struct s { int a; };\nint h_var;\n"
	fingerprints := func(h string) []string {
		env := NewEnv(Options{Include: map[string]string{"h.h": h}})
		fps := []string{
			run(t, env, "rec.c", "#include \"h.h\"\nint x;\n", 0, 1).Fingerprint(),
			run(t, env, "rep.c", "#include \"h.h\"\nint y;\n", 1, 0).Fingerprint(),
		}
		fillVariants(t, env, "h.h")
		return append(fps, run(t, env, "inplace.c", "#define OTHER\n#include \"h.h\"\nint z;\n", 0, 0).Fingerprint())
	}
	before := fingerprints(base)
	for name, h := range map[string]string{
		"token":  "struct s { int b; };\nint h_var;\n",
		"column": "struct s {  int a; };\nint h_var;\n",
		"line":   "struct s { int a; };\n\nint h_var;\n",
	} {
		after := fingerprints(h)
		for i, path := range []string{"recorded", "replayed", "in place"} {
			if after[i] == before[i] {
				t.Errorf("%s edit of the header: the %s include's file kept its fingerprint", name, path)
			}
		}
	}
}
