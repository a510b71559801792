package cpp

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"ofence/internal/obs"
)

// doubling returns a file that defines m0 as leaf and m<i> as two
// m<i-1>, and expands m<k>: 2^k leaves from about 20k bytes of input.
func doubling(k int, leaf string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "#define m0 %s\n", leaf)
	for i := 1; i <= k; i++ {
		fmt.Fprintf(&b, "#define m%d m%d m%d\n", i, i-1, i-1)
	}
	fmt.Fprintf(&b, "int f(void) { m%d; }\n", k)
	return b.String()
}

// overBudget reports whether r is the result of a file skipped for going
// over maxFileWork: no tokens and the one diagnostic.
func overBudget(r *Result) bool {
	return len(r.Tokens) == 0 && len(r.Errors) == 1 && strings.Contains(r.Errors[0].Error(), "file skipped")
}

// TestFileWorkBudget checks that a file whose macros double at every
// level expands in full below the budget, and past it yields no tokens,
// one diagnostic and a budget_exceeded counter on its preprocess span —
// also when the expansion emits nothing (empty leaves) or goes through a
// function-like macro or a #if.
func TestFileWorkBudget(t *testing.T) {
	if r := Preprocess("small.c", doubling(12, "x"), Options{}); len(r.Tokens) != 1<<12+8 || len(r.Errors) != 0 {
		t.Fatalf("k=12: %d tokens, %d errors; want %d and none", len(r.Tokens), len(r.Errors), 1<<12+8)
	}
	for name, src := range map[string]string{
		"doubling":      doubling(30, "x"),
		"empty leaves":  doubling(40, ""),
		"function-like": "#define f(a) a a\n" + strings.Repeat("f(", 40) + "x" + strings.Repeat(")", 40) + "\n",
		"#if":           strings.Replace(doubling(40, ""), "int f(void)", "#if m40\n#endif\nint f(void)", 1),
	} {
		tracer := obs.New()
		r := NewEnv(Options{}).PreprocessCtx(obs.WithTracer(context.Background(), tracer), name, src)
		if !overBudget(r) {
			t.Errorf("%s: %d tokens, errors %v; want none and the budget diagnostic", name, len(r.Tokens), r.Errors)
		}
		if fp := r.Fingerprint(); fp != fingerprintOf(name, nil, nil, r.Errors) {
			t.Errorf("%s: fingerprint %s does not cover the diagnostic alone", name, fp)
		}
		var got int64
		for _, sp := range tracer.Spans() {
			for _, c := range sp.Counters() {
				if sp.Name() == "preprocess" && c.Name == "budget_exceeded" {
					got = c.Value
				}
			}
		}
		if got != 1 {
			t.Errorf("%s: budget_exceeded = %d, want 1", name, got)
		}
	}
}

// TestFileWorkBudgetRecordsNothing checks that a header cut short by the
// budget is not recorded for replay: a later file that includes it after
// the same history expands it itself and goes over the budget too.
func TestFileWorkBudgetRecordsNothing(t *testing.T) {
	env := NewEnv(Options{Include: map[string]string{"big.h": doubling(30, "x")}})
	for _, name := range []string{"a.c", "b.c"} {
		r := env.PreprocessCtx(context.Background(), name, "#include \"big.h\"\n")
		if !overBudget(r) {
			t.Fatalf("%s: %d tokens, errors %v; want the budget diagnostic", name, len(r.Tokens), r.Errors)
		}
	}
	if len(env.memo) != 0 {
		t.Errorf("%d segments recorded from files over the budget", len(env.memo))
	}
}

// FuzzPreprocessBounded preprocesses any input of at most 4 KiB, with a
// header it may include: every run must end within maxFileWork, so its
// output never exceeds it, and a run over it must yield only the
// diagnostic. The seeds stay small, since a run over the budget does the
// whole budget's work; TestFileWorkBudget covers those.
func FuzzPreprocessBounded(f *testing.F) {
	f.Add(doubling(8, "x"), "")
	f.Add(doubling(8, ""), "")
	f.Add("#define f(a) a a\n"+strings.Repeat("f(", 6)+"x"+strings.Repeat(")", 6)+"\n", "")
	f.Add("#include \"h.h\"\n#if m6\nint y = m6;\n#endif\n", doubling(6, "1 +"))
	f.Add("#define A B B\n#define B A A\nint x = A;\n", "#include \"h.h\"\n")
	f.Fuzz(func(t *testing.T, src, hdr string) {
		if len(src)+len(hdr) > 4<<10 {
			return
		}
		r := NewEnv(Options{Include: map[string]string{"h.h": hdr}}).PreprocessCtx(context.Background(), "f.c", src)
		if len(r.Tokens) > maxFileWork {
			t.Fatalf("%d tokens, over the %d budget", len(r.Tokens), maxFileWork)
		}
		for _, err := range r.Errors {
			if strings.Contains(err.Error(), "file skipped") && !overBudget(r) {
				t.Fatalf("over the budget with %d tokens and errors %v", len(r.Tokens), r.Errors)
			}
		}
	})
}

// TestCancelInsideFile cancels a file inside its expansion: the doubling
// file at k = 22 would spend its whole budget. The run must stop at a poll,
// give the context's error as its one diagnostic and record none of its
// top-level includes, so a later file with the same include records it.
func TestCancelInsideFile(t *testing.T) {
	env := NewEnv(Options{Include: map[string]string{"h.h": "int h;\n"}})
	src := "#include \"h.h\"\n" + doubling(22, "x")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := env.PreprocessCtx(ctx, "a.c", src)
	if len(r.Tokens) != 0 || len(r.Errors) != 1 || r.Errors[0] != context.Canceled {
		t.Fatalf("%d tokens, errors %v; want none and context.Canceled", len(r.Tokens), r.Errors)
	}
	tracer := obs.New()
	env.PreprocessCtx(obs.WithTracer(context.Background(), tracer), "b.c", "#include \"h.h\"\n")
	for _, sp := range tracer.Spans() {
		for _, c := range sp.Counters() {
			if c.Name == "includes_recorded" && c.Value != 1 {
				t.Errorf("includes_recorded = %d after a canceled file, want 1", c.Value)
			}
		}
	}
}

// TestDeepConditionals checks that liveness is read from the innermost
// conditional alone: 2×10^5 nested #if 1 must preprocess well inside a 5 s
// deadline (walking the whole stack on every line took about 14 s), and
// an #else or #elif inside a dead group must stay dead.
func TestDeepConditionals(t *testing.T) {
	const n = 200_000
	src := strings.Repeat("#if 1\n", n) + "int x;\n" + strings.Repeat("#endif\n", n)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	r := NewEnv(Options{}).PreprocessCtx(ctx, "deep.c", src)
	if err := ctx.Err(); err != nil {
		t.Fatalf("%d nested #if 1: %v", n, err)
	}
	if len(r.Errors) != 0 || renderTokens(r.Tokens) != "int x ;" {
		t.Fatalf("%d nested #if 1: tokens %q, errors %v", n, renderTokens(r.Tokens), r.Errors)
	}
	for _, src := range []string{
		"#if 0\n#if 1\n#else\nint dead;\n#endif\n#endif\nint live;\n",
		"#ifdef NOPE\n#ifndef NOPE\n#elif 1\nint dead;\n#else\nint dead2;\n#endif\n#endif\nint live;\n",
		"#if 1\n#else\n#if 1\nint dead;\n#endif\n#endif\nint live;\n",
	} {
		if r := Preprocess("dead.c", src, Options{}); renderTokens(r.Tokens) != "int live ;" || len(r.Errors) != 0 {
			t.Errorf("%q: tokens %q, errors %v; want only int live ;", src, renderTokens(r.Tokens), r.Errors)
		}
	}
}
