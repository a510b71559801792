package ctoken

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"
)

// tokenCorpus exercises the tokenizer's corner cases: operator runs,
// literal shapes, unterminated literals and comments, continuations, stray
// bytes, and kernel idioms.
var tokenCorpus = []string{
	"",
	"int x;",
	"a->b->c = 1;",
	"x <<= 2; y >>= 3; z ... ; q <<~ >>",
	"p++ + ++q; a-- - --b; a->b -- c",
	"0x7fUL 0b1010 017 1.5e-3f 1e9 1.f 1. .5 0. 3..2",
	`"str" "es\"c" 'c' '\'' '\\' L"wide" L "notwide" Lx"id"`,
	"\"unterminated\n\"closed\"",
	"'unterminated\n'c'",
	"/* block */ x // line\ny /* unterminated",
	"a \\\n b \\\r\n c \\q",
	"# define FOO(x) x##y\n#if defined(BAR)\n#endif\n",
	"struct foo { int bar; } __attribute__((packed));",
	"typeof(x) y; _Bool b; _Static_assert(1, \"m\");",
	"a@b `c` $dollar _under $ @",
	"smp_wmb(); WRITE_ONCE(p->x, 1); smp_store_release(&s->f, v);",
	"for (i = 0; i < n; i++) { sum += arr[i]; }",
	"do { seq = read_seqcount_begin(&s->seq); } while (read_seqcount_retry(&s->seq, seq));",
	"int a = x ? y : z, *p = &v;",
	"\n\n\n  \t\v\f\r\n x",
	"...............",
	"<<<<= >>>>= &&& ||| ### !!= ==== %=%",
	"0b2 0bx 0x 0xg 12abc 1e+ 1e 1ee4 5lLuU",
}

// scanRecord tokenizes src in the given newline mode and renders the
// golden record of the stream: the SHA-256 over every token (kind, text,
// position, through the trailing EOF) and every diagnostic, plus counts.
func scanRecord(src string, keepNewlines bool) string {
	sc := NewScanner("diff.c", src)
	sc.KeepNewlines = keepNewlines
	h := sha256.New()
	n := 0
	for {
		tok := sc.Next()
		fmt.Fprintf(h, "%d %q %s\n", tok.Kind, tok.Text, tok.Pos)
		n++
		if tok.Kind == EOF {
			break
		}
	}
	for _, err := range sc.Errors() {
		fmt.Fprintf(h, "error %s\n", err)
	}
	return fmt.Sprintf("%x tokens=%d errors=%d", h.Sum(nil), n, len(sc.Errors()))
}

// loadTokenGoldens reads testdata/tokens.golden: "name record" lines.
func loadTokenGoldens(t testing.TB) map[string]string {
	t.Helper()
	f, err := os.Open("testdata/tokens.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, rec, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("testdata/tokens.golden: malformed line %q", line)
		}
		out[name] = rec
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// checkTokenGoldens compares corpus entry i, in both newline modes, to its
// frozen records, printing the observed line on a mismatch.
func checkTokenGoldens(t *testing.T, goldens map[string]string, i int) {
	t.Helper()
	for _, nl := range []bool{false, true} {
		name := fmt.Sprintf("case%02d/nl=%t", i, nl)
		got := scanRecord(tokenCorpus[i], nl)
		if want, ok := goldens[name]; !ok || got != want {
			t.Errorf("token stream moved from the golden record\n want: %s %s\n  got: %s %s",
				name, want, name, got)
		}
	}
}

// TestScannerMatchesLexer pins the scanner's token streams and diagnostics
// on the corpus to testdata/tokens.golden. The records were produced by the
// retired rune lexer and by the scanner, which agreed on every one; there
// is no update flag — an intended change is a reviewed edit of the file.
func TestScannerMatchesLexer(t *testing.T) {
	goldens := loadTokenGoldens(t)
	for i := range tokenCorpus {
		t.Run(fmt.Sprintf("case%02d", i), func(t *testing.T) {
			checkTokenGoldens(t, goldens, i)
		})
	}
}

// FuzzScannerMatchesLexer fuzzes the scanner over the golden corpus and
// whatever the mutator invents. Corpus inputs must still match their golden
// records; every input must terminate with idempotent EOF, positions that
// never run backwards, and — when it scans without diagnostics — token
// boundaries that are stable: re-scanning the token texts, one per line,
// yields the same tokens.
func FuzzScannerMatchesLexer(f *testing.F) {
	goldens := loadTokenGoldens(f)
	index := map[string]int{}
	for i, src := range tokenCorpus {
		index[src] = i
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			t.Skip("oversized input")
		}
		if i, ok := index[src]; ok {
			checkTokenGoldens(t, goldens, i)
		}
		sc := NewScanner("fuzz.c", src)
		var toks []Token
		prev := Position{Line: 1, Col: 1}
		for {
			tok := sc.Next()
			if tok.Pos.Line < prev.Line || (tok.Pos.Line == prev.Line && tok.Pos.Col < prev.Col) {
				t.Fatalf("position ran backwards: %s after %s", tok.Pos, prev)
			}
			prev = tok.Pos
			if tok.Kind == EOF {
				break
			}
			toks = append(toks, tok)
			if len(toks) > len(src)+16 {
				t.Fatalf("scanner failed to terminate on %q", src)
			}
		}
		if tok := sc.Next(); tok.Kind != EOF {
			t.Fatalf("Next after EOF = %v", tok)
		}
		if len(sc.Errors()) > 0 {
			return
		}
		texts := make([]string, len(toks))
		for i, tok := range toks {
			texts[i] = tok.Text
		}
		re := NewScanner("fuzz.c", strings.Join(texts, " \n")).AppendAll(nil)
		if len(re) != len(toks) {
			t.Fatalf("re-scan of %q gave %d tokens, want %d", src, len(re), len(toks))
		}
		for i := range re {
			if re[i].Kind != toks[i].Kind || re[i].Text != toks[i].Text {
				t.Fatalf("re-scan of %q: token %d = %v, want %v", src, i, re[i], toks[i])
			}
		}
	})
}
