package cpp

import (
	"strings"
	"testing"
	"testing/quick"

	"ofence/internal/ctoken"
)

func pp(t *testing.T, src string, opts Options) *Result {
	t.Helper()
	r := Preprocess("test.c", src, opts)
	for _, err := range r.Errors {
		t.Fatalf("unexpected preprocess error: %v", err)
	}
	return r
}

func texts(toks []ctoken.Token) string {
	var parts []string
	for _, t := range toks {
		parts = append(parts, t.Text)
	}
	return strings.Join(parts, " ")
}

func TestObjectMacro(t *testing.T) {
	r := pp(t, "#define N 10\nint a[N];", Options{})
	if got := texts(r.Tokens); got != "int a [ 10 ] ;" {
		t.Errorf("got %q", got)
	}
}

func TestObjectMacroChained(t *testing.T) {
	r := pp(t, "#define A B\n#define B 3\nx = A;", Options{})
	if got := texts(r.Tokens); got != "x = 3 ;" {
		t.Errorf("got %q", got)
	}
}

func TestFunctionMacro(t *testing.T) {
	r := pp(t, "#define SQ(x) ((x)*(x))\ny = SQ(a+1);", Options{})
	if got := texts(r.Tokens); got != "y = ( ( a + 1 ) * ( a + 1 ) ) ;" {
		t.Errorf("got %q", got)
	}
}

func TestFunctionMacroMultipleParams(t *testing.T) {
	r := pp(t, "#define MAX(a,b) ((a)>(b)?(a):(b))\nz = MAX(p, q);", Options{})
	if got := texts(r.Tokens); got != "z = ( ( p ) > ( q ) ? ( p ) : ( q ) ) ;" {
		t.Errorf("got %q", got)
	}
}

func TestFunctionMacroNestedCallArgs(t *testing.T) {
	r := pp(t, "#define ID(x) x\nv = ID(f(a, b));", Options{})
	if got := texts(r.Tokens); got != "v = f ( a , b ) ;" {
		t.Errorf("got %q", got)
	}
}

func TestFunctionMacroNoParens(t *testing.T) {
	// A function-like macro name not followed by "(" stays an identifier.
	r := pp(t, "#define F(x) x\nint F;", Options{})
	if got := texts(r.Tokens); got != "int F ;" {
		t.Errorf("got %q", got)
	}
}

func TestMacroNotFunctionWhenSpaceBeforeParen(t *testing.T) {
	// "#define A (1)" is object-like with body "(1)".
	r := pp(t, "#define A (1)\nx = A;", Options{})
	if got := texts(r.Tokens); got != "x = ( 1 ) ;" {
		t.Errorf("got %q", got)
	}
}

func TestRecursiveMacroStops(t *testing.T) {
	r := pp(t, "#define X X\nint X;", Options{})
	if got := texts(r.Tokens); got != "int X ;" {
		t.Errorf("got %q", got)
	}
}

func TestMutualRecursionStops(t *testing.T) {
	r := pp(t, "#define A B\n#define B A\nint A;", Options{})
	// A -> B -> A (hidden) stops; result is "A".
	if got := texts(r.Tokens); got != "int A ;" {
		t.Errorf("got %q", got)
	}
}

func TestUndef(t *testing.T) {
	r := pp(t, "#define N 1\n#undef N\nint a = N;", Options{})
	if got := texts(r.Tokens); got != "int a = N ;" {
		t.Errorf("got %q", got)
	}
}

func TestStringify(t *testing.T) {
	r := pp(t, "#define S(x) #x\nchar *s = S(hello);", Options{})
	if got := texts(r.Tokens); got != `char * s = "hello" ;` {
		t.Errorf("got %q", got)
	}
}

func TestTokenPaste(t *testing.T) {
	r := pp(t, "#define MK(n) var_##n\nint MK(foo);", Options{})
	if got := texts(r.Tokens); got != "int var_foo ;" {
		t.Errorf("got %q", got)
	}
	toks := r.Tokens
	if toks[1].Kind != ctoken.Ident {
		t.Errorf("pasted token kind = %v, want Ident", toks[1].Kind)
	}
}

func TestVariadicMacro(t *testing.T) {
	r := pp(t, "#define LOG(fmt, ...) printk(fmt, __VA_ARGS__)\nLOG(\"%d\", x, y);", Options{})
	if got := texts(r.Tokens); got != `printk ( "%d" , x , y ) ;` {
		t.Errorf("got %q", got)
	}
}

func TestIfdef(t *testing.T) {
	src := "#ifdef CONFIG_SMP\nint smp;\n#else\nint up;\n#endif"
	r := pp(t, src, Options{Defines: map[string]string{"CONFIG_SMP": "1"}})
	if got := texts(r.Tokens); got != "int smp ;" {
		t.Errorf("with define: got %q", got)
	}
	r = pp(t, src, Options{})
	if got := texts(r.Tokens); got != "int up ;" {
		t.Errorf("without define: got %q", got)
	}
}

func TestIfndef(t *testing.T) {
	src := "#ifndef GUARD\n#define GUARD\nint x;\n#endif\n#ifndef GUARD\nint y;\n#endif"
	r := pp(t, src, Options{})
	if got := texts(r.Tokens); got != "int x ;" {
		t.Errorf("got %q", got)
	}
}

func TestIfExpression(t *testing.T) {
	cases := []struct {
		cond string
		want bool
	}{
		{"1", true},
		{"0", false},
		{"1 + 1 == 2", true},
		{"defined(FOO)", true},
		{"defined(BAR)", false},
		{"defined FOO && FOO > 2", true},
		{"FOO * 2 == 6", true},
		{"!defined(BAR)", true},
		{"(1 ? 0 : 1)", false},
		{"UNDEFINED_NAME", false},
		{"1 << 3 == 8", true},
		{"~0 != 0", true},
		{"-1 < 0", true},
		{"5 % 2 == 1", true},
	}
	for _, c := range cases {
		src := "#if " + c.cond + "\nint yes;\n#else\nint no;\n#endif"
		r := pp(t, src, Options{Defines: map[string]string{"FOO": "3"}})
		got := texts(r.Tokens)
		want := "int no ;"
		if c.want {
			want = "int yes ;"
		}
		if got != want {
			t.Errorf("#if %s: got %q, want %q", c.cond, got, want)
		}
	}
}

func TestElif(t *testing.T) {
	src := "#if A == 1\nint one;\n#elif A == 2\nint two;\n#else\nint other;\n#endif"
	for def, want := range map[string]string{"1": "int one ;", "2": "int two ;", "9": "int other ;"} {
		r := pp(t, src, Options{Defines: map[string]string{"A": def}})
		if got := texts(r.Tokens); got != want {
			t.Errorf("A=%s: got %q, want %q", def, got, want)
		}
	}
}

func TestNestedConditionals(t *testing.T) {
	src := `#ifdef OUTER
#ifdef INNER
int both;
#else
int outer_only;
#endif
#else
int neither;
#endif`
	r := pp(t, src, Options{Defines: map[string]string{"OUTER": "1", "INNER": "1"}})
	if got := texts(r.Tokens); got != "int both ;" {
		t.Errorf("both: got %q", got)
	}
	r = pp(t, src, Options{Defines: map[string]string{"OUTER": "1"}})
	if got := texts(r.Tokens); got != "int outer_only ;" {
		t.Errorf("outer only: got %q", got)
	}
	r = pp(t, src, Options{})
	if got := texts(r.Tokens); got != "int neither ;" {
		t.Errorf("neither: got %q", got)
	}
}

func TestDeadBranchDefinesIgnored(t *testing.T) {
	src := "#ifdef NO\n#define X 1\n#endif\nint a = X;"
	r := pp(t, src, Options{})
	if got := texts(r.Tokens); got != "int a = X ;" {
		t.Errorf("got %q", got)
	}
}

func TestInclude(t *testing.T) {
	hdr := "#define FLAG 7\nstruct hdr { int x; };"
	src := `#include "my.h"` + "\nint v = FLAG;"
	r := pp(t, src, Options{Include: map[string]string{"my.h": hdr}})
	got := texts(r.Tokens)
	if !strings.Contains(got, "struct hdr { int x ; }") {
		t.Errorf("header content missing: %q", got)
	}
	if !strings.Contains(got, "int v = 7 ;") {
		t.Errorf("header macro not visible: %q", got)
	}
}

func TestIncludeAngle(t *testing.T) {
	src := "#include <linux/types.h>\nint x;"
	r := pp(t, src, Options{Include: map[string]string{"linux/types.h": "typedef int u32;"}})
	if got := texts(r.Tokens); got != "typedef int u32 ; int x ;" {
		t.Errorf("got %q", got)
	}
}

func TestIncludeMissingSkipped(t *testing.T) {
	r := pp(t, "#include <linux/missing.h>\nint x;", Options{})
	if got := texts(r.Tokens); got != "int x ;" {
		t.Errorf("got %q", got)
	}
}

func TestIncludeCycleTerminates(t *testing.T) {
	a := `#include "b.h"` + "\nint a;"
	b := `#include "a.h"` + "\nint b;"
	r := Preprocess("a.h", a, Options{Include: map[string]string{"a.h": a, "b.h": b}})
	got := texts(r.Tokens)
	if !strings.Contains(got, "int a ;") || !strings.Contains(got, "int b ;") {
		t.Errorf("cycle result: %q", got)
	}
}

func TestMultilineMacro(t *testing.T) {
	src := "#define BODY \\\n do { x = 1; } while (0)\nBODY;"
	r := pp(t, src, Options{})
	if got := texts(r.Tokens); got != "do { x = 1 ; } while ( 0 ) ;" {
		t.Errorf("got %q", got)
	}
}

func TestErrorDirectiveInLiveBranch(t *testing.T) {
	r := Preprocess("t.c", "#error bad config\n", Options{})
	if len(r.Errors) == 0 {
		t.Error("expected #error to be reported")
	}
}

func TestErrorDirectiveInDeadBranch(t *testing.T) {
	r := Preprocess("t.c", "#ifdef NOPE\n#error unreachable\n#endif\nint x;", Options{})
	if len(r.Errors) != 0 {
		t.Errorf("dead #error reported: %v", r.Errors)
	}
}

// TestDeadBranchConditionalsNotEvaluated checks that a skipped group is
// processed only for nesting (C11 6.10.1p6): an #if, #elif, #ifdef or
// #ifndef inside it is not checked or evaluated, so it reports nothing.
func TestDeadBranchConditionalsNotEvaluated(t *testing.T) {
	src := "#ifdef NOPE\n#if 1/0\n#elif defined(\n#endif\n#endif\n" +
		"#if 0\n#if 2 +\n#elif 1/0\n#else\nint hidden;\n#endif\n#endif\n" +
		"#if 0\n#ifdef\n#endif\n#ifndef 3\n#endif\n#endif\nint x;\n"
	r := Preprocess("t.c", src, Options{})
	if len(r.Errors) != 0 {
		t.Errorf("conditions in a skipped group reported %v", r.Errors)
	}
	if got := texts(r.Tokens); got != "int x ;" {
		t.Errorf("got %q", got)
	}
}

func TestUnbalancedConditionals(t *testing.T) {
	r := Preprocess("t.c", "#ifdef A\nint x;", Options{})
	if len(r.Errors) == 0 {
		t.Error("expected error for unterminated #ifdef")
	}
	r = Preprocess("t.c", "#endif\n", Options{})
	if len(r.Errors) == 0 {
		t.Error("expected error for stray #endif")
	}
	r = Preprocess("t.c", "#else\n", Options{})
	if len(r.Errors) == 0 {
		t.Error("expected error for stray #else")
	}
}

func TestPragmaIgnored(t *testing.T) {
	r := pp(t, "#pragma once\nint x;", Options{})
	if got := texts(r.Tokens); got != "int x ;" {
		t.Errorf("got %q", got)
	}
}

func TestKernelBarrierMacros(t *testing.T) {
	// Shape of the kernel's barrier headers: macros that expand to calls.
	src := `#define smp_store_release(p, v) do { smp_mb(); WRITE_ONCE(*p, v); } while (0)
smp_store_release(&x->flag, 1);`
	r := pp(t, src, Options{})
	got := texts(r.Tokens)
	if !strings.Contains(got, "smp_mb ( )") || !strings.Contains(got, "WRITE_ONCE ( * & x -> flag , 1 )") {
		t.Errorf("got %q", got)
	}
}

func TestQuickObjectMacroValue(t *testing.T) {
	// Property: an object-like macro defined to an integer always expands
	// to exactly that integer token.
	f := func(v uint32) bool {
		src := "#define V " + itoa(v) + "\nx = V;"
		r := Preprocess("q.c", src, Options{})
		return len(r.Errors) == 0 && texts(r.Tokens) == "x = "+itoa(v)+" ;"
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickIfArithmetic(t *testing.T) {
	// Property: #if (a < b) agrees with Go's comparison on small ints.
	f := func(a, b int16) bool {
		cond := "(" + itoa(uint32(uint16(a))) + " < " + itoa(uint32(uint16(b))) + ")"
		src := "#if " + cond + "\nint yes;\n#else\nint no;\n#endif"
		r := Preprocess("q.c", src, Options{})
		if len(r.Errors) != 0 {
			return false
		}
		want := "int no ;"
		if uint16(a) < uint16(b) {
			want = "int yes ;"
		}
		return texts(r.Tokens) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func itoa(v uint32) string {
	if v == 0 {
		return "0"
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	return string(b)
}

func TestMacroTableExposed(t *testing.T) {
	r := pp(t, "#define A 1\n#define F(x) x\n", Options{})
	if r.Macros["A"] == nil || r.Macros["A"].IsFunc {
		t.Error("A should be an object-like macro")
	}
	if r.Macros["F"] == nil || !r.Macros["F"].IsFunc || len(r.Macros["F"].Params) != 1 {
		t.Error("F should be a function-like macro with one param")
	}
}

func TestNestedFunctionMacros(t *testing.T) {
	r := pp(t, "#define A(x) B(x) + 1\n#define B(x) ((x) * 2)\nv = A(3);", Options{})
	if got := texts(r.Tokens); got != "v = ( ( 3 ) * 2 ) + 1 ;" {
		t.Errorf("got %q", got)
	}
}

func TestMacroArgumentSpanningParens(t *testing.T) {
	r := pp(t, "#define F(a, b) a + b\nv = F((1, 2), 3);", Options{})
	// "(1, 2)" is one argument because of the parentheses.
	if got := texts(r.Tokens); got != "v = ( 1 , 2 ) + 3 ;" {
		t.Errorf("got %q", got)
	}
}

func TestEmptyMacroArguments(t *testing.T) {
	r := pp(t, "#define F(a, b) x a y b z\nv = F(,);", Options{})
	if got := texts(r.Tokens); got != "v = x y z ;" {
		t.Errorf("got %q", got)
	}
}

func TestVariadicEmptyTail(t *testing.T) {
	r := pp(t, "#define LOG(fmt, ...) p(fmt, __VA_ARGS__)\nLOG(\"x\");", Options{})
	if got := texts(r.Tokens); got != `p ( "x" , ) ;` {
		// GNU would eat the trailing comma with ##; plain substitution
		// leaves it, which the kernel avoids anyway.
		t.Errorf("got %q", got)
	}
}

func TestRedefineMacro(t *testing.T) {
	r := pp(t, "#define N 1\n#define N 2\nv = N;", Options{})
	if got := texts(r.Tokens); got != "v = 2 ;" {
		t.Errorf("got %q", got)
	}
}

func TestObjectMacroExpandsInsideFunctionMacroArgs(t *testing.T) {
	r := pp(t, "#define W 4\n#define SQ(x) ((x)*(x))\nv = SQ(W);", Options{})
	if got := texts(r.Tokens); got != "v = ( ( 4 ) * ( 4 ) ) ;" {
		t.Errorf("got %q", got)
	}
}

func TestConditionalInsideMacroBodyNotInterpreted(t *testing.T) {
	// Directives inside a macro body are not directives; the kernel never
	// relies on that, but it must not crash or mis-nest conditionals.
	r := Preprocess("t.c", "#define X hash\nint v;", Options{})
	if len(r.Errors) != 0 {
		t.Errorf("errors: %v", r.Errors)
	}
}

func TestDeepNestingTerminates(t *testing.T) {
	src := ""
	for i := 0; i < 40; i++ {
		src += "#ifdef A\n"
	}
	src += "int x;\n"
	for i := 0; i < 40; i++ {
		src += "#endif\n"
	}
	r := Preprocess("t.c", src, Options{})
	if len(r.Errors) != 0 {
		t.Errorf("errors: %v", r.Errors)
	}
	if got := texts(r.Tokens); got != "" {
		t.Errorf("dead code leaked: %q", got)
	}
}

func TestExpansionDepthBounded(t *testing.T) {
	// A pathological self-feeding chain must hit the depth bound, not hang.
	src := "#define A(x) A(x x)\nv = A(1);"
	r := Preprocess("t.c", src, Options{MaxExpansionDepth: 8})
	_ = r // termination is the assertion
}

func TestStringifyPreservesSpacing(t *testing.T) {
	r := pp(t, "#define S(x) #x\nchar *s = S(a + b);", Options{})
	if got := texts(r.Tokens); got != `char * s = "a + b" ;` {
		t.Errorf("got %q", got)
	}
}

func TestPasteBuildsKeywordLikeName(t *testing.T) {
	r := pp(t, "#define GLUE(a, b) a##b\nint GLUE(ret, urn_code);", Options{})
	if got := texts(r.Tokens); got != "int return_code ;" {
		t.Errorf("got %q", got)
	}
	// The pasted token must be an identifier, not the return keyword.
	for _, tok := range r.Tokens {
		if tok.Text == "return_code" && tok.Kind != ctoken.Ident {
			t.Errorf("pasted token kind = %v", tok.Kind)
		}
	}
}

// TestChainNext pins what the memo key's operation chain distinguishes:
// the name, #define against #undef, kind, parameters, variadic flag and
// body token kinds and texts each change the chain; body positions do not,
// since expansion retargets them.
func TestChainNext(t *testing.T) {
	base := func() *Macro {
		body := []ctoken.Token{
			{Kind: ctoken.Ident, Text: "a", Pos: ctoken.Position{File: "a.h", Line: 1, Col: 15}},
			{Kind: ctoken.Plus, Text: "+", Pos: ctoken.Position{File: "a.h", Line: 1, Col: 17}},
			{Kind: ctoken.Ident, Text: "b", Pos: ctoken.Position{File: "a.h", Line: 1, Col: 19}},
		}
		return &Macro{Name: "M", Params: []string{"a", "b"}, IsFunc: true, Body: body}
	}
	with := func(change func(*Macro)) *Macro {
		m := base()
		change(m)
		return m
	}
	var buf []byte
	after := func(name string, m *Macro) chain {
		var c chain
		c, buf = chain{}.next(buf, name, m)
		return c
	}
	want := after("M", base())
	cases := []struct {
		name  string
		op    string
		m     *Macro
		equal bool
	}{
		{"same", "M", base(), true},
		{"body positions", "M", with(func(m *Macro) {
			for i := range m.Body {
				m.Body[i].Pos = ctoken.Position{File: "b.c", Line: 7, Col: i}
			}
		}), true},
		{"name", "N", base(), false},
		{"params", "M", with(func(m *Macro) { m.Params = []string{"a", "c"} }), false},
		{"params split", "M", with(func(m *Macro) { m.Params = []string{"ab"} }), false},
		{"variadic", "M", with(func(m *Macro) { m.Variadic = true }), false},
		{"object-like", "M", with(func(m *Macro) { m.IsFunc, m.Params = false, nil }), false},
		{"body text", "M", with(func(m *Macro) { m.Body[2].Text = "c" }), false},
		{"body kind", "M", with(func(m *Macro) { m.Body[1].Kind = ctoken.Minus }), false},
		{"body length", "M", with(func(m *Macro) { m.Body = m.Body[:2] }), false},
		{"undef", "M", nil, false},
	}
	for _, c := range cases {
		if got := after(c.op, c.m) == want; got != c.equal {
			t.Errorf("%s: equal chain = %t, want %t", c.name, got, c.equal)
		}
	}
	// Order matters: the chain digests a history, not a set.
	ab, _ := chain{}.next(nil, "A", nil)
	ab, _ = ab.next(nil, "B", nil)
	ba, _ := chain{}.next(nil, "B", nil)
	ba, _ = ba.next(nil, "A", nil)
	if ab == ba {
		t.Error("#undef A, #undef B and #undef B, #undef A gave the same chain")
	}
}
