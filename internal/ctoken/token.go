// Package ctoken defines the lexical tokens of the C subset analyzed by
// OFence and the Scanner that converts kernel C source into a token stream.
//
// The token set covers everything that appears in the barrier-bearing code
// of the Linux kernel that OFence inspects: identifiers, keywords, integer,
// floating, character and string literals, and the full C operator and
// punctuation set. Preprocessor directives are tokenized as HASH followed by
// ordinary tokens so that the internal/cpp package can interpret them.
package ctoken

import "fmt"

// Kind identifies the lexical class of a token.
type Kind int

// Token kinds. Operator kinds are named after their symbol.
const (
	EOF Kind = iota
	ILLEGAL

	// Literals and names.
	Ident   // foo, my_struct
	Int     // 123, 0x7f, 017, 42UL
	Float   // 1.5, 1e9
	Char    // 'a'
	String  // "abc"
	Keyword // if, while, struct, ...

	// Punctuation.
	LParen   // (
	RParen   // )
	LBrace   // {
	RBrace   // }
	LBracket // [
	RBracket // ]
	Comma    // ,
	Semi     // ;
	Colon    // :
	Question // ?
	Ellipsis // ...
	Hash     // #
	HashHash // ##

	// Member access.
	Dot   // .
	Arrow // ->

	// Arithmetic.
	Plus    // +
	Minus   // -
	Star    // *
	Slash   // /
	Percent // %

	// Increment / decrement.
	PlusPlus   // ++
	MinusMinus // --

	// Bitwise.
	Amp   // &
	Pipe  // |
	Caret // ^
	Tilde // ~
	Shl   // <<
	Shr   // >>

	// Logical.
	AmpAmp   // &&
	PipePipe // ||
	Not      // !

	// Comparison.
	Eq // ==
	Ne // !=
	Lt // <
	Gt // >
	Le // <=
	Ge // >=

	// Assignment.
	Assign        // =
	PlusAssign    // +=
	MinusAssign   // -=
	StarAssign    // *=
	SlashAssign   // /=
	PercentAssign // %=
	AmpAssign     // &=
	PipeAssign    // |=
	CaretAssign   // ^=
	ShlAssign     // <<=
	ShrAssign     // >>=

	// Newline is only emitted in preprocessor mode so that internal/cpp can
	// find the end of a directive; the parser never sees it.
	Newline
)

var kindNames = map[Kind]string{
	EOF:           "EOF",
	ILLEGAL:       "ILLEGAL",
	Ident:         "identifier",
	Int:           "integer",
	Float:         "float",
	Char:          "char",
	String:        "string",
	Keyword:       "keyword",
	LParen:        "(",
	RParen:        ")",
	LBrace:        "{",
	RBrace:        "}",
	LBracket:      "[",
	RBracket:      "]",
	Comma:         ",",
	Semi:          ";",
	Colon:         ":",
	Question:      "?",
	Ellipsis:      "...",
	Hash:          "#",
	HashHash:      "##",
	Dot:           ".",
	Arrow:         "->",
	Plus:          "+",
	Minus:         "-",
	Star:          "*",
	Slash:         "/",
	Percent:       "%",
	PlusPlus:      "++",
	MinusMinus:    "--",
	Amp:           "&",
	Pipe:          "|",
	Caret:         "^",
	Tilde:         "~",
	Shl:           "<<",
	Shr:           ">>",
	AmpAmp:        "&&",
	PipePipe:      "||",
	Not:           "!",
	Eq:            "==",
	Ne:            "!=",
	Lt:            "<",
	Gt:            ">",
	Le:            "<=",
	Ge:            ">=",
	Assign:        "=",
	PlusAssign:    "+=",
	MinusAssign:   "-=",
	StarAssign:    "*=",
	SlashAssign:   "/=",
	PercentAssign: "%=",
	AmpAssign:     "&=",
	PipeAssign:    "|=",
	CaretAssign:   "^=",
	ShlAssign:     "<<=",
	ShrAssign:     ">>=",
	Newline:       "newline",
}

// String returns a human-readable name for the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// IsAssign reports whether the kind is an assignment operator (including
// compound assignments such as +=).
func (k Kind) IsAssign() bool {
	return k >= Assign && k <= ShrAssign
}

// Position is a source location: file, 1-based line and column.
type Position struct {
	File string
	Line int
	Col  int
}

// String renders the position in the conventional file:line:col form.
func (p Position) String() string {
	if p.File == "" {
		return fmt.Sprintf("%d:%d", p.Line, p.Col)
	}
	return fmt.Sprintf("%s:%d:%d", p.File, p.Line, p.Col)
}

// IsValid reports whether the position carries real location information.
func (p Position) IsValid() bool { return p.Line > 0 }

// Token is one lexical token with its source text and position.
type Token struct {
	Kind Kind
	Text string // raw source text (identifier name, literal text, operator)
	Pos  Position
}

// String renders the token for diagnostics.
func (t Token) String() string {
	switch t.Kind {
	case Ident, Int, Float, Char, String, Keyword:
		return fmt.Sprintf("%s(%q)", t.Kind, t.Text)
	default:
		return t.Kind.String()
	}
}

// keywords is the set of C keywords recognized by the subset grammar. GNU
// and kernel extensions that behave like keywords are included so that the
// parser can skip or interpret them.
var keywords = map[string]bool{
	"auto": true, "break": true, "case": true, "char": true,
	"const": true, "continue": true, "default": true, "do": true,
	"double": true, "else": true, "enum": true, "extern": true,
	"float": true, "for": true, "goto": true, "if": true,
	"inline": true, "int": true, "long": true, "register": true,
	"restrict": true, "return": true, "short": true, "signed": true,
	"sizeof": true, "static": true, "struct": true, "switch": true,
	"typedef": true, "union": true, "unsigned": true, "void": true,
	"volatile": true, "while": true,
	// GNU / kernel extensions treated as keywords.
	"__attribute__": true, "__inline": true, "__inline__": true,
	"__volatile__": true, "__restrict": true, "typeof": true,
	"__typeof__": true, "asm": true, "__asm__": true,
	"_Bool": true, "_Static_assert": true,
}

// IsKeyword reports whether name is a keyword of the C subset.
func IsKeyword(name string) bool { return keywords[name] }
