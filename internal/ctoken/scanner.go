package ctoken

import "fmt"

// Scanner converts C source text into tokens. It strips comments,
// recognizes line continuations (backslash-newline), and can optionally emit
// Newline tokens so that the preprocessor can delimit directives. Its token
// streams are pinned by testdata/tokens.golden. It is built for throughput:
//
//   - token text is a subslice of src — the scanner never concatenates or
//     copies spellings (a stray byte >= 0x80 is the one exception, see
//     scanOperator);
//   - operator and keyword recognition is branch dispatch (compiled jump
//     tables), not map probes;
//   - AppendAll tokenizes into a caller-provided buffer, so a per-worker
//     buffer can be recycled across files;
//   - identifiers are optionally interned through a shared SymTab, giving
//     every downstream stage canonical spellings and dense IDs.
type Scanner struct {
	src  string
	file string
	off  int
	line int
	col  int

	// KeepNewlines makes the scanner emit Newline tokens. The preprocessor
	// enables this; the parser consumes a stream without them.
	KeepNewlines bool

	// Syms, when non-nil, interns every identifier spelling and replaces the
	// token text with the table's canonical string.
	Syms *SymTab

	// Ident, when non-nil alongside Syms, memoizes Canon lookups through a
	// direct-mapped cache, so repeated spellings skip the table's lock and
	// map probe. Callers recycle caches across files (see cpp's scratch
	// pool); For rebinds a cache to the table in use.
	Ident *IdentCache

	errs []error
}

// IdentCache is a small direct-mapped memo in front of SymTab.Canon.
// Identifiers repeat heavily within a file, so most occurrences hit the
// cache and cost one short string compare instead of a locked map lookup.
// A cache is only valid against the table its entries came from.
type IdentCache struct {
	syms *SymTab
	tab  [8192]string
}

// For returns c bound to table t, resetting the entries if c previously
// served a different table (stale canonical strings must never leak across
// symbol tables — downstream consumers rely on every spelling being interned
// in the table they share).
func (c *IdentCache) For(t *SymTab) *IdentCache {
	if c.syms != t {
		*c = IdentCache{syms: t}
	}
	return c
}

// canon resolves text's canonical spelling through the cache, if any.
// The index is FNV-1a over the full spelling: identifiers are short, so
// hashing every byte costs less than the map probe a collision causes, and
// shape-alike names (foo_12_lock / foo_34_lock) that a cheaper first/last/
// length hash would pile onto one slot spread out.
func (s *Scanner) canon(text string) string {
	c := s.Ident
	if c == nil {
		return s.Syms.Canon(text)
	}
	h := uint32(2166136261)
	for i := 0; i < len(text); i++ {
		h = (h ^ uint32(text[i])) * 16777619
	}
	h &= 8191
	if c.tab[h] == text {
		return c.tab[h]
	}
	canon := s.Syms.Canon(text)
	c.tab[h] = canon
	return canon
}

// NewScanner returns a scanner over src, attributing positions to file.
func NewScanner(file, src string) *Scanner {
	return &Scanner{src: src, file: file, line: 1, col: 1}
}

// Errors returns the lexical errors encountered so far.
func (s *Scanner) Errors() []error { return s.errs }

func (s *Scanner) errorf(pos Position, format string, args ...any) {
	s.errs = append(s.errs, fmt.Errorf("%s: %s", pos, fmt.Sprintf(format, args...)))
}

// peek returns the byte at offset n past the cursor, or 0 at EOF.
func (s *Scanner) peek(n int) byte {
	if s.off+n >= len(s.src) {
		return 0
	}
	return s.src[s.off+n]
}

// advance consumes one byte, maintaining line/col.
func (s *Scanner) advance() byte {
	c := s.src[s.off]
	s.off++
	if c == '\n' {
		s.line++
		s.col = 1
	} else {
		s.col++
	}
	return c
}

// skipSpace consumes whitespace, comments, and line continuations. It stops
// at a newline when KeepNewlines is set so the newline becomes a token.
func (s *Scanner) skipSpace() {
	for s.off < len(s.src) {
		switch c := s.src[s.off]; c {
		case ' ', '\t', '\r', '\v', '\f':
			s.off++
			s.col++
		case '\n':
			if s.KeepNewlines {
				return
			}
			s.off++
			s.line++
			s.col = 1
		case '\\':
			if s.peek(1) == '\n' {
				s.off += 2
				s.line++
				s.col = 1
			} else if s.peek(1) == '\r' && s.peek(2) == '\n' {
				s.off += 3
				s.line++
				s.col = 1
			} else {
				return
			}
		case '/':
			switch s.peek(1) {
			case '/':
				for s.off < len(s.src) && s.src[s.off] != '\n' {
					s.off++
					s.col++
				}
			case '*':
				start := Position{File: s.file, Line: s.line, Col: s.col}
				s.off += 2
				s.col += 2
				closed := false
				for s.off < len(s.src) {
					if s.src[s.off] == '*' && s.peek(1) == '/' {
						s.off += 2
						s.col += 2
						closed = true
						break
					}
					s.advance()
				}
				if !closed {
					s.errorf(start, "unterminated block comment")
				}
			default:
				return
			}
		default:
			return
		}
	}
}

// Next returns the next token. At end of input it returns an EOF token;
// calling Next after EOF keeps returning EOF.
func (s *Scanner) Next() Token {
	s.skipSpace()
	pos := Position{File: s.file, Line: s.line, Col: s.col}
	if s.off >= len(s.src) {
		return Token{Kind: EOF, Pos: pos}
	}
	c := s.src[s.off]
	switch {
	case c == '\n':
		s.advance()
		return Token{Kind: Newline, Text: "\n", Pos: pos}
	case isIdentStart(c):
		return s.scanIdent(pos)
	case isDigit(c) || (c == '.' && isDigit(s.peek(1))):
		return s.scanNumber(pos)
	case c == '"':
		return s.scanString(pos)
	case c == '\'':
		return s.scanChar(pos)
	}
	return s.scanOperator(pos)
}

// AppendAll tokenizes the remaining input into buf, excluding the trailing
// EOF token, and returns the extended buffer. Passing a recycled buffer
// (length 0, retained capacity) makes whole-file tokenization allocation-free
// once the buffer has grown to corpus size.
func (s *Scanner) AppendAll(buf []Token) []Token {
	for {
		t := s.Next()
		if t.Kind == EOF {
			return buf
		}
		buf = append(buf, t)
	}
}

func (s *Scanner) scanIdent(pos Position) Token {
	start := s.off
	off := s.off
	src := s.src
	for off < len(src) && isIdentCont(src[off]) {
		off++
	}
	s.col += off - s.off
	s.off = off
	text := src[start:off]
	// Wide-string literal prefix: L"..." — the spelling is contiguous in
	// src, so the combined token is still a single subslice.
	if text == "L" && off < len(src) && src[off] == '"' {
		t := s.scanString(pos)
		t.Text = src[start:s.off]
		return t
	}
	if isKeywordSwitch(text) {
		return Token{Kind: Keyword, Text: text, Pos: pos}
	}
	if s.Syms != nil {
		text = s.canon(text)
	}
	return Token{Kind: Ident, Text: text, Pos: pos}
}

// isKeywordSwitch is IsKeyword as a compiled string switch: the keyword set
// must stay in lockstep with the keywords map in token.go (pinned by
// TestScannerKeywordParity).
func isKeywordSwitch(s string) bool {
	switch s {
	case "auto", "break", "case", "char", "const", "continue", "default",
		"do", "double", "else", "enum", "extern", "float", "for", "goto",
		"if", "inline", "int", "long", "register", "restrict", "return",
		"short", "signed", "sizeof", "static", "struct", "switch",
		"typedef", "union", "unsigned", "void", "volatile", "while",
		"__attribute__", "__inline", "__inline__", "__volatile__",
		"__restrict", "typeof", "__typeof__", "asm", "__asm__",
		"_Bool", "_Static_assert":
		return true
	}
	return false
}

func (s *Scanner) scanNumber(pos Position) Token {
	start := s.off
	kind := Int
	if s.peek(0) == '0' && (s.peek(1) == 'x' || s.peek(1) == 'X') {
		s.advance()
		s.advance()
		for isHex(s.peek(0)) {
			s.advance()
		}
	} else if s.peek(0) == '0' && (s.peek(1) == 'b' || s.peek(1) == 'B') && (s.peek(2) == '0' || s.peek(2) == '1') {
		// GCC binary literals (0b1010), seen in kernel drivers.
		s.advance()
		s.advance()
		for s.peek(0) == '0' || s.peek(0) == '1' {
			s.advance()
		}
	} else {
		for isDigit(s.peek(0)) {
			s.advance()
		}
		if s.peek(0) == '.' {
			kind = Float
			s.advance()
			for isDigit(s.peek(0)) {
				s.advance()
			}
		}
		if c := s.peek(0); c == 'e' || c == 'E' {
			next := s.peek(1)
			if isDigit(next) || ((next == '+' || next == '-') && isDigit(s.peek(2))) {
				kind = Float
				s.advance() // e
				if c := s.peek(0); c == '+' || c == '-' {
					s.advance()
				}
				for isDigit(s.peek(0)) {
					s.advance()
				}
			}
		}
	}
	// Integer/float suffixes: u, l, ll, f, and combinations.
	for {
		c := s.peek(0)
		if c == 'u' || c == 'U' || c == 'l' || c == 'L' || ((c == 'f' || c == 'F') && kind == Float) {
			s.advance()
			continue
		}
		break
	}
	return Token{Kind: kind, Text: s.src[start:s.off], Pos: pos}
}

func (s *Scanner) scanString(pos Position) Token {
	start := s.off
	s.advance() // opening quote
	for s.off < len(s.src) {
		c := s.src[s.off]
		if c == '\\' && s.off+1 < len(s.src) {
			s.advance()
			s.advance()
			continue
		}
		if c == '"' {
			s.advance()
			return Token{Kind: String, Text: s.src[start:s.off], Pos: pos}
		}
		if c == '\n' {
			break
		}
		s.advance()
	}
	s.errorf(pos, "unterminated string literal")
	return Token{Kind: String, Text: s.src[start:s.off], Pos: pos}
}

func (s *Scanner) scanChar(pos Position) Token {
	start := s.off
	s.advance() // opening quote
	for s.off < len(s.src) {
		c := s.src[s.off]
		if c == '\\' && s.off+1 < len(s.src) {
			s.advance()
			s.advance()
			continue
		}
		if c == '\'' {
			s.advance()
			return Token{Kind: Char, Text: s.src[start:s.off], Pos: pos}
		}
		if c == '\n' {
			break
		}
		s.advance()
	}
	s.errorf(pos, "unterminated character literal")
	return Token{Kind: Char, Text: s.src[start:s.off], Pos: pos}
}

// scanOperator resolves operators with explicit branch dispatch on the lead
// byte, longest match first.
func (s *Scanner) scanOperator(pos Position) Token {
	c := s.src[s.off]
	n1 := s.peek(1)
	switch c {
	case '(':
		return s.op(LParen, 1, pos)
	case ')':
		return s.op(RParen, 1, pos)
	case '{':
		return s.op(LBrace, 1, pos)
	case '}':
		return s.op(RBrace, 1, pos)
	case '[':
		return s.op(LBracket, 1, pos)
	case ']':
		return s.op(RBracket, 1, pos)
	case ',':
		return s.op(Comma, 1, pos)
	case ';':
		return s.op(Semi, 1, pos)
	case ':':
		return s.op(Colon, 1, pos)
	case '?':
		return s.op(Question, 1, pos)
	case '~':
		return s.op(Tilde, 1, pos)
	case '.':
		if n1 == '.' && s.peek(2) == '.' {
			return s.op(Ellipsis, 3, pos)
		}
		return s.op(Dot, 1, pos)
	case '#':
		if n1 == '#' {
			return s.op(HashHash, 2, pos)
		}
		return s.op(Hash, 1, pos)
	case '+':
		switch n1 {
		case '+':
			return s.op(PlusPlus, 2, pos)
		case '=':
			return s.op(PlusAssign, 2, pos)
		}
		return s.op(Plus, 1, pos)
	case '-':
		switch n1 {
		case '>':
			return s.op(Arrow, 2, pos)
		case '-':
			return s.op(MinusMinus, 2, pos)
		case '=':
			return s.op(MinusAssign, 2, pos)
		}
		return s.op(Minus, 1, pos)
	case '*':
		if n1 == '=' {
			return s.op(StarAssign, 2, pos)
		}
		return s.op(Star, 1, pos)
	case '/':
		if n1 == '=' {
			return s.op(SlashAssign, 2, pos)
		}
		return s.op(Slash, 1, pos)
	case '%':
		if n1 == '=' {
			return s.op(PercentAssign, 2, pos)
		}
		return s.op(Percent, 1, pos)
	case '<':
		switch n1 {
		case '<':
			if s.peek(2) == '=' {
				return s.op(ShlAssign, 3, pos)
			}
			return s.op(Shl, 2, pos)
		case '=':
			return s.op(Le, 2, pos)
		}
		return s.op(Lt, 1, pos)
	case '>':
		switch n1 {
		case '>':
			if s.peek(2) == '=' {
				return s.op(ShrAssign, 3, pos)
			}
			return s.op(Shr, 2, pos)
		case '=':
			return s.op(Ge, 2, pos)
		}
		return s.op(Gt, 1, pos)
	case '&':
		switch n1 {
		case '&':
			return s.op(AmpAmp, 2, pos)
		case '=':
			return s.op(AmpAssign, 2, pos)
		}
		return s.op(Amp, 1, pos)
	case '|':
		switch n1 {
		case '|':
			return s.op(PipePipe, 2, pos)
		case '=':
			return s.op(PipeAssign, 2, pos)
		}
		return s.op(Pipe, 1, pos)
	case '^':
		if n1 == '=' {
			return s.op(CaretAssign, 2, pos)
		}
		return s.op(Caret, 1, pos)
	case '=':
		if n1 == '=' {
			return s.op(Eq, 2, pos)
		}
		return s.op(Assign, 1, pos)
	case '!':
		if n1 == '=' {
			return s.op(Ne, 2, pos)
		}
		return s.op(Not, 1, pos)
	}
	// The token text is string(byte), which UTF-8 encodes values >= 0x80:
	// diagnostics and the golden token streams depend on that spelling.
	b := s.advance()
	s.errorf(pos, "illegal character %q", string(b))
	return Token{Kind: ILLEGAL, Text: string(b), Pos: pos}
}

func (s *Scanner) op(k Kind, n int, pos Position) Token {
	start := s.off
	s.off += n
	s.col += n
	return Token{Kind: k, Text: s.src[start : start+n], Pos: pos}
}

func isIdentStart(c byte) bool {
	return c == '_' || c == '$' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentCont(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isHex(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}
