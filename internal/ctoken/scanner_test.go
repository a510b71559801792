package ctoken

import (
	"strings"
	"testing"
	"testing/quick"
)

func lex(t *testing.T, src string) []Token {
	t.Helper()
	sc := NewScanner("test.c", src)
	toks := sc.AppendAll(nil)
	for _, err := range sc.Errors() {
		t.Fatalf("unexpected lex error: %v", err)
	}
	return toks
}

func kinds(toks []Token) []Kind {
	ks := make([]Kind, len(toks))
	for i, t := range toks {
		ks[i] = t.Kind
	}
	return ks
}

func expectKinds(t *testing.T, src string, want ...Kind) {
	t.Helper()
	got := kinds(lex(t, src))
	if len(got) != len(want) {
		t.Fatalf("lex(%q): got %d tokens %v, want %d %v", src, len(got), got, len(want), want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("lex(%q): token %d = %v, want %v", src, i, got[i], want[i])
		}
	}
}

func TestLexIdentifiers(t *testing.T) {
	toks := lex(t, "foo _bar baz42 __attribute__")
	if len(toks) != 4 {
		t.Fatalf("got %d tokens, want 4: %v", len(toks), toks)
	}
	if toks[0].Kind != Ident || toks[0].Text != "foo" {
		t.Errorf("token 0 = %v, want Ident foo", toks[0])
	}
	if toks[1].Kind != Ident || toks[1].Text != "_bar" {
		t.Errorf("token 1 = %v, want Ident _bar", toks[1])
	}
	if toks[2].Kind != Ident || toks[2].Text != "baz42" {
		t.Errorf("token 2 = %v, want Ident baz42", toks[2])
	}
	if toks[3].Kind != Keyword {
		t.Errorf("token 3 = %v, want Keyword __attribute__", toks[3])
	}
}

func TestLexKeywords(t *testing.T) {
	for _, kw := range []string{"if", "while", "struct", "typedef", "return", "sizeof", "volatile"} {
		toks := lex(t, kw)
		if len(toks) != 1 || toks[0].Kind != Keyword || toks[0].Text != kw {
			t.Errorf("lex(%q) = %v, want single keyword", kw, toks)
		}
	}
}

func TestLexNumbers(t *testing.T) {
	cases := []struct {
		src  string
		kind Kind
	}{
		{"0", Int}, {"123", Int}, {"0x7fUL", Int}, {"017", Int},
		{"42u", Int}, {"10ULL", Int},
		{"1.5", Float}, {"1e9", Float}, {"3.14f", Float},
		{".5", Float}, {"1E-3", Float}, {"2e+10", Float},
	}
	for _, c := range cases {
		toks := lex(t, c.src)
		if len(toks) != 1 {
			t.Errorf("lex(%q): got %d tokens %v", c.src, len(toks), toks)
			continue
		}
		if toks[0].Kind != c.kind || toks[0].Text != c.src {
			t.Errorf("lex(%q) = %v, want %v with full text", c.src, toks[0], c.kind)
		}
	}
}

func TestLexNumberFollowedByDotDot(t *testing.T) {
	// "1..." should not swallow the ellipsis into the number.
	expectKinds(t, "1 ...", Int, Ellipsis)
}

func TestLexStrings(t *testing.T) {
	toks := lex(t, `"hello" "esc\"aped" "with \n newline" L"wide"`)
	if len(toks) != 4 {
		t.Fatalf("got %d tokens: %v", len(toks), toks)
	}
	for i, want := range []string{`"hello"`, `"esc\"aped"`, `"with \n newline"`, `L"wide"`} {
		if toks[i].Kind != String || toks[i].Text != want {
			t.Errorf("token %d = %v, want String %s", i, toks[i], want)
		}
	}
}

func TestLexChars(t *testing.T) {
	toks := lex(t, `'a' '\n' '\''`)
	if len(toks) != 3 {
		t.Fatalf("got %d tokens: %v", len(toks), toks)
	}
	for _, tok := range toks {
		if tok.Kind != Char {
			t.Errorf("token %v, want Char", tok)
		}
	}
}

func TestLexOperators(t *testing.T) {
	expectKinds(t, "a->b", Ident, Arrow, Ident)
	expectKinds(t, "a.b", Ident, Dot, Ident)
	expectKinds(t, "a <<= b >>= c", Ident, ShlAssign, Ident, ShrAssign, Ident)
	expectKinds(t, "a<<b>>c", Ident, Shl, Ident, Shr, Ident)
	expectKinds(t, "a&&b||!c", Ident, AmpAmp, Ident, PipePipe, Not, Ident)
	expectKinds(t, "x ? y : z", Ident, Question, Ident, Colon, Ident)
	expectKinds(t, "f(a, b);", Ident, LParen, Ident, Comma, Ident, RParen, Semi)
	expectKinds(t, "a == b != c <= d >= e", Ident, Eq, Ident, Ne, Ident, Le, Ident, Ge, Ident)
	expectKinds(t, "a += 1; b -= 2; c *= 3; d /= 4; e %= 5;",
		Ident, PlusAssign, Int, Semi, Ident, MinusAssign, Int, Semi,
		Ident, StarAssign, Int, Semi, Ident, SlashAssign, Int, Semi,
		Ident, PercentAssign, Int, Semi)
	expectKinds(t, "a &= b |= c ^= d", Ident, AmpAssign, Ident, PipeAssign, Ident, CaretAssign, Ident)
	expectKinds(t, "i++; j--;", Ident, PlusPlus, Semi, Ident, MinusMinus, Semi)
	expectKinds(t, "~a ^ b", Tilde, Ident, Caret, Ident)
	expectKinds(t, "void f(int, ...)", Keyword, Ident, LParen, Keyword, Comma, Ellipsis, RParen)
	expectKinds(t, "#define A(x) x##_t", Hash, Ident, Ident, LParen, Ident, RParen, Ident, HashHash, Ident)
}

func TestLexComments(t *testing.T) {
	expectKinds(t, "a /* comment */ b", Ident, Ident)
	expectKinds(t, "a // line comment\nb", Ident, Ident)
	expectKinds(t, "/* multi\nline\ncomment */x", Ident)
	expectKinds(t, "a /* nested /* not really */ b", Ident, Ident)
}

func TestLexLineContinuation(t *testing.T) {
	expectKinds(t, "foo\\\nbar", Ident, Ident)
	l := NewScanner("t.c", "a \\\n b")
	l.KeepNewlines = true
	toks := l.AppendAll(nil)
	// Continuation must not emit a Newline token even in preprocessor mode.
	for _, tok := range toks {
		if tok.Kind == Newline {
			t.Errorf("line continuation produced Newline token: %v", toks)
		}
	}
}

func TestLexNewlineMode(t *testing.T) {
	l := NewScanner("t.c", "#define X 1\nint y;")
	l.KeepNewlines = true
	toks := l.AppendAll(nil)
	want := []Kind{Hash, Ident, Ident, Int, Newline, Keyword, Ident, Semi}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("token %d = %v, want %v (all: %v)", i, got[i], want[i], toks)
		}
	}
}

func TestLexPositions(t *testing.T) {
	toks := lex(t, "a\n  b\n\tc")
	if toks[0].Pos.Line != 1 || toks[0].Pos.Col != 1 {
		t.Errorf("a at %v, want 1:1", toks[0].Pos)
	}
	if toks[1].Pos.Line != 2 || toks[1].Pos.Col != 3 {
		t.Errorf("b at %v, want 2:3", toks[1].Pos)
	}
	if toks[2].Pos.Line != 3 || toks[2].Pos.Col != 2 {
		t.Errorf("c at %v, want 3:2", toks[2].Pos)
	}
	if toks[0].Pos.File != "test.c" {
		t.Errorf("file = %q, want test.c", toks[0].Pos.File)
	}
}

func TestLexKernelSnippet(t *testing.T) {
	src := `
static void writer(struct my_struct *b) {
	b->y = 1;
	smp_wmb();
	b->init = 1;
}
`
	toks := lex(t, src)
	var idents []string
	for _, tok := range toks {
		if tok.Kind == Ident {
			idents = append(idents, tok.Text)
		}
	}
	want := []string{"writer", "my_struct", "b", "b", "y", "smp_wmb", "b", "init"}
	if strings.Join(idents, " ") != strings.Join(want, " ") {
		t.Errorf("idents = %v, want %v", idents, want)
	}
}

func TestLexErrors(t *testing.T) {
	l := NewScanner("t.c", `"unterminated`)
	l.AppendAll(nil)
	if len(l.Errors()) == 0 {
		t.Error("expected error for unterminated string")
	}
	l = NewScanner("t.c", "'x")
	l.AppendAll(nil)
	if len(l.Errors()) == 0 {
		t.Error("expected error for unterminated char")
	}
	l = NewScanner("t.c", "/* never closed")
	l.AppendAll(nil)
	if len(l.Errors()) == 0 {
		t.Error("expected error for unterminated comment")
	}
	l = NewScanner("t.c", "a @ b")
	toks := l.AppendAll(nil)
	if len(l.Errors()) == 0 {
		t.Error("expected error for illegal character")
	}
	found := false
	for _, tok := range toks {
		if tok.Kind == ILLEGAL {
			found = true
		}
	}
	if !found {
		t.Error("expected ILLEGAL token for @")
	}
}

func TestLexEOFIdempotent(t *testing.T) {
	l := NewScanner("t.c", "x")
	l.Next()
	for i := 0; i < 3; i++ {
		if tok := l.Next(); tok.Kind != EOF {
			t.Fatalf("Next after EOF = %v, want EOF", tok)
		}
	}
}

func TestKindString(t *testing.T) {
	if Arrow.String() != "->" {
		t.Errorf("Arrow.String() = %q", Arrow.String())
	}
	if Kind(9999).String() == "" {
		t.Error("unknown kind should still render")
	}
}

func TestIsAssign(t *testing.T) {
	for _, k := range []Kind{Assign, PlusAssign, ShrAssign, CaretAssign} {
		if !k.IsAssign() {
			t.Errorf("%v.IsAssign() = false", k)
		}
	}
	for _, k := range []Kind{Eq, Plus, Arrow, Shl} {
		if k.IsAssign() {
			t.Errorf("%v.IsAssign() = true", k)
		}
	}
}

// Property: lexing the joined text of a lexed identifier/number stream
// reproduces the same token texts.
func TestQuickLexIdentRoundTrip(t *testing.T) {
	f := func(words []uint16) bool {
		var names []string
		for _, w := range words {
			// Build a valid identifier deterministically from w.
			name := "v" + string(rune('a'+int(w%26))) + string(rune('a'+int((w/26)%26)))
			if IsKeyword(name) {
				continue
			}
			names = append(names, name)
		}
		src := strings.Join(names, " ")
		toks := NewScanner("q.c", src).AppendAll(nil)
		if len(toks) != len(names) {
			return false
		}
		for i, tok := range toks {
			if tok.Kind != Ident || tok.Text != names[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: concatenation of token texts with separators always re-lexes to
// the same kinds (stability of the token boundaries we emit).
func TestQuickRelexStability(t *testing.T) {
	ops := []string{"->", "++", "--", "<<", ">>", "&&", "||", "==", "!=", "<=", ">=", "+", "-", "*", "/", "(", ")", "[", "]", "{", "}", ";", ","}
	f := func(pick []byte) bool {
		var parts []string
		for _, p := range pick {
			parts = append(parts, ops[int(p)%len(ops)])
		}
		src := strings.Join(parts, " ")
		toks1 := NewScanner("q.c", src).AppendAll(nil)
		var rebuilt []string
		for _, tok := range toks1 {
			rebuilt = append(rebuilt, tok.Text)
		}
		toks2 := NewScanner("q.c", strings.Join(rebuilt, " ")).AppendAll(nil)
		if len(toks1) != len(toks2) {
			return false
		}
		for i := range toks1 {
			if toks1[i].Kind != toks2[i].Kind {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPositionString(t *testing.T) {
	p := Position{File: "f.c", Line: 3, Col: 7}
	if p.String() != "f.c:3:7" {
		t.Errorf("got %q", p.String())
	}
	p2 := Position{Line: 1, Col: 2}
	if p2.String() != "1:2" {
		t.Errorf("got %q", p2.String())
	}
	if (Position{}).IsValid() {
		t.Error("zero position should be invalid")
	}
	if !p.IsValid() {
		t.Error("real position should be valid")
	}
}

func TestLexBinaryLiterals(t *testing.T) {
	toks := lex(t, "0b1010 0B11 0b0UL")
	if len(toks) != 3 {
		t.Fatalf("got %d tokens: %v", len(toks), toks)
	}
	for i, want := range []string{"0b1010", "0B11", "0b0UL"} {
		if toks[i].Kind != Int || toks[i].Text != want {
			t.Errorf("token %d = %v, want Int %q", i, toks[i], want)
		}
	}
	// "0b" alone without digits is a zero followed by an identifier.
	toks = lex(t, "0b ")
	if len(toks) != 2 || toks[0].Kind != Int || toks[1].Kind != Ident {
		t.Errorf("0b fallback = %v", toks)
	}
}

// TestScannerKeywordParity pins the scanner's compiled keyword switch to the
// keywords map behind IsKeyword, in both directions.
func TestScannerKeywordParity(t *testing.T) {
	for kw := range keywords {
		if !isKeywordSwitch(kw) {
			t.Errorf("keyword %q missing from isKeywordSwitch", kw)
		}
	}
	for _, name := range []string{"", "iff", "Int", "int_", "__attribute",
		"_static_assert", "restricted", "type", "whiles"} {
		if isKeywordSwitch(name) != keywords[name] {
			t.Errorf("isKeywordSwitch(%q) = %v, keywords map says %v",
				name, isKeywordSwitch(name), keywords[name])
		}
	}
}

// TestScannerInternsIdentifiers checks that a shared SymTab canonicalizes
// spellings: equal identifiers from different files come back as the same
// backing string and ID.
func TestScannerInternsIdentifiers(t *testing.T) {
	syms := NewSymTab()
	scan := func(src string) []Token {
		sc := NewScanner("intern.c", src)
		sc.Syms = syms
		return sc.AppendAll(nil)
	}
	a := scan("alpha beta alpha")
	b := scan("beta alpha")
	if a[0].Text != "alpha" || a[1].Text != "beta" {
		t.Fatalf("unexpected tokens %v", a)
	}
	if syms.Intern(a[0].Text) != syms.Intern(b[1].Text) {
		t.Errorf("alpha interned to two IDs")
	}
	if syms.Intern(a[1].Text) != syms.Intern(b[0].Text) {
		t.Errorf("beta interned to two IDs")
	}
	if got := syms.Len(); got != 2 {
		t.Errorf("Len = %d, want 2", got)
	}
	if syms.Name(syms.Intern("alpha")) != "alpha" {
		t.Errorf("Name round-trip failed")
	}
	if syms.Canon("alpha") != "alpha" {
		t.Errorf("Canon changed the spelling")
	}
}
