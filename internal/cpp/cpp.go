// Package cpp implements the minimal C preprocessor needed to analyze
// kernel-style source: object-like and function-like #define macros, macro
// expansion with recursion protection, #undef, #include resolution against a
// caller-provided file set, and conditional compilation (#if defined /
// #ifdef / #ifndef / #else / #elif / #endif) driven by a configuration set.
//
// The output is a flat token stream with Newline tokens removed, ready for
// internal/cparser. OFence analyzes one kernel configuration at a time (the
// paper uses the Ubuntu x86_64 config); the Config map plays that role here.
package cpp

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"slices"
	"strconv"
	"strings"
	"sync"

	"ofence/internal/ctoken"
)

// Macro is one #define.
type Macro struct {
	Name     string
	Params   []string // nil for object-like macros
	Variadic bool
	Body     []ctoken.Token
	IsFunc   bool
}

// Options configures preprocessing.
type Options struct {
	// Include maps an include path (as written between quotes or angle
	// brackets) to its source text. Unresolvable includes are skipped, as
	// Smatch does for headers outside the analyzed tree.
	Include map[string]string
	// Defines seeds the macro table, keyed by name. Values are parsed as
	// object-like macro bodies. Used for kernel config (CONFIG_*) symbols.
	Defines map[string]string
	// MaxExpansionDepth bounds recursive macro expansion. Defaults to 64.
	MaxExpansionDepth int
	// Syms, when non-nil, interns every identifier the directive scanner
	// emits into a shared symbol table (see ctoken.SymTab): all files of a
	// project agree on one canonical spelling per identifier. Never changes
	// the token stream or the fingerprint.
	Syms *ctoken.SymTab
}

// Result is the preprocessed token stream plus diagnostics.
type Result struct {
	// Tokens are the file's own tokens: the whole stream unless an include
	// was replayed, whose tokens the stream has but Tokens does not (see
	// Include and Stream).
	Tokens []ctoken.Token
	Errors []error
	// Macros is the final macro table, useful for tests and tooling. Its
	// *Macro values may be shared with other Results of the same Env, so
	// they are read-only.
	Macros map[string]*Macro
	// Includes are the top-level #includes this run replayed from or
	// recorded into its Env's memo, in order, leaving out those that
	// expand to no tokens (see Include).
	Includes []Include

	// fp is the fingerprint, streamed while the tokens were emitted.
	fp string
}

// Stream returns the whole token stream: Tokens with the tokens of every
// replayed include spliced in. It copies only when an include was
// replayed, so callers that can walk the pieces (see Include) should.
func (r *Result) Stream() []ctoken.Token {
	n := r.Len()
	if n == len(r.Tokens) {
		return r.Tokens
	}
	out := make([]ctoken.Token, 0, n)
	last := 0
	for _, inc := range r.Includes {
		if inc.Spliced {
			out = append(out, r.Tokens[last:inc.At]...)
			out = append(out, inc.Toks...)
			last = inc.At
		}
	}
	return append(out, r.Tokens[last:]...)
}

// Len returns the length of the whole token stream.
func (r *Result) Len() int {
	n := len(r.Tokens)
	for _, inc := range r.Includes {
		if inc.Spliced {
			n += len(inc.Toks)
		}
	}
	return n
}

// Fingerprint returns the content address of the preprocess artifact: the
// hex SHA-256 over the file name, every emitted token (text and position)
// and every diagnostic. Two runs with the same fingerprint are
// indistinguishable to every downstream stage — the parser sees the same
// tokens and the result carries the same errors — so the fingerprint is the
// cache key the incremental pipeline builds parse/cfg/extract keys from.
//
// The preimage is "file\x00", then in stream order one item per token of
// the file's own and one per top-level #include, then "Eerr\x00" per
// diagnostic. A token's item is "text\x00file:line:col\n". An include's
// item, however it was handled (replayed, recorded or expanded in place),
// is segTag followed by the 32-byte SHA-256 of the token items its
// expansion emitted, so a header's tokens are hashed once per Env, not
// once per file. A reader
// at an item boundary tells the two apart by the first byte: no emitted
// token's text is empty or begins with a newline (the scanner yields line
// breaks only as Newline tokens, which are never emitted), so an item that
// starts with segTag is a reference, and a reference has a fixed length.
// References therefore add no ambiguity to the token encoding.
func (r *Result) Fingerprint() string { return r.fp }

// segTag opens an include's item in the fingerprint preimage.
const segTag = '\n'

// appendError appends err's fingerprint item to buf.
func appendError(buf []byte, err error) []byte {
	buf = append(buf, 'E')
	buf = append(buf, err.Error()...)
	return append(buf, 0)
}

// maxFileWork bounds what one file's preprocessing may emit: every token
// the file's output receives, replayed includes included, every token a
// macro expansion produces on the way (an argument is expanded before it
// is substituted, so its tokens count twice) and every macro invocation,
// which also charges expansions that emit nothing. It sits far above real
// translation units (a file of the generated bench tree emits about 2,170
// tokens), and it stops a file of a few hundred bytes whose macros double
// at each level from emitting 2^k tokens. A file over the bound yields no
// tokens and one diagnostic.
const maxFileWork = 1 << 21

type preprocessor struct {
	env      *Env
	opts     Options
	root     string // the file being preprocessed
	macros   map[string]*Macro
	out      []ctoken.Token
	errs     []error
	includes map[string]bool // cycle protection

	// chain digests every #define/#undef applied so far (see chain.next);
	// chainBuf is its scratch encoding buffer.
	chain    chain
	chainBuf []byte

	// rec collects the top-level #include being expanded into a segment;
	// nil outside one. segs are the segments this file recorded, published
	// to env when the file is done; replayed and recorded count top-level
	// includes spliced from env's memo and expanded into a recording.
	rec                *segment
	segs               []*segment
	replayed, recorded int
	// incs are the Result's Includes.
	incs []Include

	// h accumulates the content fingerprint while tokens are emitted, so
	// Result.Fingerprint is ready the moment preprocessing finishes; hbuf
	// batches the pending preimage bytes so the digest sees one Write per
	// few kilobytes instead of one per token. While a top-level include
	// expands, h is incH, the include's own digest (see expandInclude).
	h    hash.Hash
	hbuf []byte
	incH hash.Hash

	// hpfx caches the "\x00file:line:" chunk of the token preimage — tokens
	// cluster by line, so the file name and line digits are re-rendered only
	// when the line changes. The emitted byte stream is unchanged.
	hpfx     []byte
	hpfxFile string
	hpfxLine int

	// lineBuf is the streaming path's one reused scratch buffer: directive
	// lines and macro-bearing line suffixes are collected here before
	// dispatch/expand. Safe to reuse per line — nothing retains line tokens
	// (macro bodies are copied at definition time).
	lineBuf []ctoken.Token

	// ident memoizes SymTab.Canon lookups for the streaming scanner.
	ident *ctoken.IdentCache

	// hide backs expand's stack of the macro names being expanded, with
	// room for the deepest expansion, so a push never allocates.
	hide []string

	// work is what the file spent of maxFileWork so far; over records
	// that it went past it, which stops all further work.
	work int
	over bool
	// ctx is polled every pollWork units of work; canceled records that
	// it was done, which stops all further work like over.
	ctx      context.Context
	nextPoll int
	canceled bool

	// macroBloom is a first-byte filter over defined macro names: the
	// streaming path checks it before probing the macro table for every
	// identifier. Bits are only ever set (#undef leaves them — a false
	// positive just falls through to the map), so the filter can never hide
	// a definition.
	macroBloom [8]uint32
}

func (p *preprocessor) bloomAdd(name string) {
	if len(name) > 0 {
		c := name[0]
		p.macroBloom[c>>5] |= 1 << (c & 31)
	}
}

func (p *preprocessor) bloomHas(name string) bool {
	c := name[0]
	return p.macroBloom[c>>5]&(1<<(c&31)) != 0
}

// appendDecimal renders v in base 10 like strconv.AppendInt, with inline
// paths for the 1-3 digit values that dominate line/column numbers.
func appendDecimal(b []byte, v int) []byte {
	switch {
	case v < 10:
		return append(b, byte('0'+v))
	case v < 100:
		return append(b, byte('0'+v/10), byte('0'+v%10))
	case v < 1000:
		return append(b, byte('0'+v/100), byte('0'+v/10%10), byte('0'+v%10))
	default:
		return strconv.AppendInt(b, int64(v), 10)
	}
}

// hashTok appends tok's fingerprint preimage to the pending batch, flushing
// to the digest when the batch fills. The batch is staged through locals so
// the per-token appends store the slice headers back to the heap once, not
// once per append (each header store is a write barrier on this path).
func (p *preprocessor) hashTok(tok ctoken.Token) {
	b := p.hbuf
	if len(b) >= 4<<10 {
		p.flushHash()
		b = p.hbuf
	}
	if tok.Pos.Line != p.hpfxLine || tok.Pos.File != p.hpfxFile {
		pfx := append(p.hpfx[:0], 0)
		pfx = append(pfx, tok.Pos.File...)
		pfx = append(pfx, ':')
		pfx = appendDecimal(pfx, tok.Pos.Line)
		pfx = append(pfx, ':')
		p.hpfx = pfx
		p.hpfxFile, p.hpfxLine = tok.Pos.File, tok.Pos.Line
	}
	b = append(b, tok.Text...)
	b = append(b, p.hpfx...)
	b = appendDecimal(b, tok.Pos.Col)
	p.hbuf = append(b, '\n')
}

// flushHash drains the pending preimage batch into the digest.
func (p *preprocessor) flushHash() {
	if len(p.hbuf) > 0 {
		p.h.Write(p.hbuf)
		p.hbuf = p.hbuf[:0]
	}
}

// Preprocess runs the preprocessor over src, attributing positions to file.
func Preprocess(file, src string, opts Options) *Result {
	return PreprocessCtx(context.Background(), file, src, opts)
}

// PreprocessCtx is Env.PreprocessCtx on a fresh environment.
func PreprocessCtx(ctx context.Context, file, src string, opts Options) *Result {
	return NewEnv(opts).PreprocessCtx(ctx, file, src)
}

// scratch recycles the streaming preprocessor's per-file working buffers —
// the pending fingerprint preimage, its line-prefix cache, and the directive
// line buffer. None of them escape into the Result, so a pool entry is free
// to move between files and workers.
type scratch struct {
	hbuf    []byte
	hpfx    []byte
	lineBuf []ctoken.Token
	ident   *ctoken.IdentCache
}

var scratchPool = sync.Pool{
	New: func() any {
		return &scratch{hbuf: make([]byte, 0, 8<<10)}
	},
}

// preprocess runs the preprocessor over one file and reports how many
// top-level includes it replayed and recorded, and whether the file went
// over maxFileWork.
func (e *Env) preprocess(ctx context.Context, file, src string) (res *Result, replayed, recorded int, over bool) {
	opts := e.opts
	p := &preprocessor{
		env:      e,
		opts:     opts,
		root:     file,
		macros:   make(map[string]*Macro, len(e.defines)),
		includes: map[string]bool{},
		ctx:      ctx,
		nextPoll: pollWork,
	}
	// The output is fingerprinted as it is emitted, on pooled scratch
	// buffers.
	sc := scratchPool.Get().(*scratch)
	p.h = sha256.New()
	p.hbuf = append(sc.hbuf[:0], file...)
	p.hbuf = append(p.hbuf, 0)
	p.hpfx = sc.hpfx
	p.lineBuf = sc.lineBuf
	if opts.Syms != nil {
		if sc.ident == nil {
			sc.ident = new(ctoken.IdentCache)
		}
		p.ident = sc.ident.For(opts.Syms)
	}
	for name, m := range e.defines {
		p.macros[name] = m
		p.bloomAdd(name)
	}
	p.processFile(file, src)
	sc.hpfx = p.hpfx[:0]
	sc.lineBuf = p.lineBuf[:0]
	res = &Result{Macros: p.macros}
	if p.over {
		// What was emitted is dropped, and with it the recordings, which
		// may be cut short; the fingerprint covers the file name and the
		// diagnostic alone.
		err := fmt.Errorf("%s: preprocessing exceeds %d tokens; file skipped", ctoken.Position{File: file, Line: 1, Col: 1}, maxFileWork)
		if p.canceled {
			err = ctx.Err()
		}
		p.errs = []error{err}
		p.h.Reset()
		p.hbuf = append(append(p.hbuf[:0], file...), 0)
	} else {
		e.publish(p.segs)
		res.Tokens, res.Includes = p.out, p.incs
	}
	res.Errors = p.errs
	for _, err := range p.errs {
		p.hbuf = appendError(p.hbuf, err)
	}
	p.flushHash()
	res.fp = hex.EncodeToString(p.h.Sum(nil))
	sc.hbuf = p.hbuf[:0]
	scratchPool.Put(sc)
	return res, p.replayed, p.recorded, p.over && !p.canceled
}

// hideStack returns an empty expansion stack on the preprocessor's
// backing array.
func (p *preprocessor) hideStack() []string {
	if p.hide == nil {
		p.hide = make([]string, 0, p.opts.MaxExpansionDepth+2)
	}
	return p.hide[:0]
}

// pollWork is how many units of work the preprocessor does between two
// polls of its context.
const pollWork = 4096

// spend charges n to the file's work and reports whether the file is
// still within maxFileWork and its context is not done.
func (p *preprocessor) spend(n int) bool {
	p.work += n
	if p.work > maxFileWork {
		p.over = true
	}
	if p.work >= p.nextPoll {
		p.nextPoll = p.work + pollWork
		if p.ctx.Err() != nil {
			p.over, p.canceled = true, true
		}
	}
	return !p.over
}

func (p *preprocessor) errorf(pos ctoken.Position, format string, args ...any) {
	p.errs = append(p.errs, fmt.Errorf("%s: %s", pos, fmt.Sprintf(format, args...)))
}

// line is one directive line: the directive name ("#" when the first token
// after the hash is not a name), its operand tokens, and its position.
type line struct {
	directive string
	toks      []ctoken.Token
	pos       ctoken.Position
}

// condState tracks one level of #if nesting.
type condState struct {
	active      bool // tokens in this branch are emitted
	everMatched bool // some branch already matched (for #elif/#else)
	parentLive  bool
}

func (p *preprocessor) processFile(file, src string) {
	if p.rec != nil && !slices.Contains(p.rec.tried, file) {
		p.rec.tried = append(p.rec.tried, file)
	}
	if p.includes[file] || p.over {
		return
	}
	p.includes[file] = true
	defer delete(p.includes, file)
	p.streamFile(file, src)
}

// setMacro applies a #define (m non-nil) or an #undef (m nil), folding it
// into the chain and into the segment being recorded, if any.
func (p *preprocessor) setMacro(name string, m *Macro) {
	p.chain, p.chainBuf = p.chain.next(p.chainBuf, name, m)
	if p.rec != nil {
		p.rec.ops = append(p.rec.ops, macroOp{name, m})
	}
	p.applyMacro(name, m)
}

// applyMacro writes a #define (m non-nil) or an #undef (m nil) into the
// macro table.
func (p *preprocessor) applyMacro(name string, m *Macro) {
	if m == nil {
		delete(p.macros, name)
		return
	}
	p.macros[name] = m
	p.bloomAdd(name)
}

// condsLive reports whether every open conditional branch is active. A
// branch is active only while its parent is live, so the innermost one
// decides.
func condsLive(conds []condState) bool {
	return len(conds) == 0 || conds[len(conds)-1].active
}

// dispatch processes one directive line against the conditional stack and
// returns the updated stack.
func (p *preprocessor) dispatch(ln line, conds []condState) []condState {
	switch ln.directive {
	// A skipped group is processed only for nesting (C11 6.10.1p6): no
	// condition inside it is checked, looked up or evaluated.
	case "ifdef", "ifndef":
		live := condsLive(conds)
		on := false
		switch {
		case !live:
		case len(ln.toks) >= 1 && ln.toks[0].Kind == ctoken.Ident:
			_, defined := p.macros[ln.toks[0].Text]
			on = defined == (ln.directive == "ifdef")
		default:
			p.errorf(ln.pos, "#%s requires an identifier", ln.directive)
		}
		conds = append(conds, condState{active: on, everMatched: on, parentLive: live})
	case "if":
		live := condsLive(conds)
		on := live && p.evalCond(ln.toks, ln.pos)
		conds = append(conds, condState{active: on, everMatched: on, parentLive: live})
	case "elif":
		if len(conds) == 0 {
			p.errorf(ln.pos, "#elif without #if")
			return conds
		}
		c := &conds[len(conds)-1]
		if c.everMatched || !c.parentLive {
			c.active = false
		} else {
			c.active = p.evalCond(ln.toks, ln.pos)
			c.everMatched = c.active
		}
	case "else":
		if len(conds) == 0 {
			p.errorf(ln.pos, "#else without #if")
			return conds
		}
		c := &conds[len(conds)-1]
		c.active = c.parentLive && !c.everMatched
		c.everMatched = true
	case "endif":
		if len(conds) == 0 {
			p.errorf(ln.pos, "#endif without #if")
			return conds
		}
		conds = conds[:len(conds)-1]
	case "define":
		if condsLive(conds) {
			p.define(ln)
		}
	case "undef":
		if condsLive(conds) && len(ln.toks) >= 1 {
			p.setMacro(ln.toks[0].Text, nil)
		}
	case "include":
		if condsLive(conds) {
			p.include(ln)
		}
	case "pragma", "error", "warning", "line", "#":
		// Ignored. #error inside a dead branch is common in the kernel.
		if ln.directive == "error" && condsLive(conds) {
			p.errorf(ln.pos, "#error: %s", renderTokens(ln.toks))
		}
	default:
		// Unknown directive: skip, as Smatch does.
	}
	return conds
}

// streamFile is the single-pass preprocessor: it drives the zero-copy
// scanner token by token and emits ordinary live-line tokens straight into
// the output — each folded into the running fingerprint as it passes — with
// no whole-file token buffer and no line materialization in between.
// Directive lines and macro-bearing line suffixes are collected into one
// small reused buffer and handled by dispatch and expand.
func (p *preprocessor) streamFile(file, src string) {
	sc := ctoken.NewScanner(file, src)
	sc.KeepNewlines = true
	sc.Syms = p.opts.Syms
	sc.Ident = p.ident
	if p.out == nil {
		// Root file: size the output once for the expected token count of
		// the file itself — dense C runs about one token per four source
		// bytes — so emission rarely reallocates; replayed headers never
		// enter it (see Include).
		p.out = make([]ctoken.Token, 0, len(src)/4+16)
	}
	errStart := len(p.errs)
	buf := p.lineBuf[:0]
	var conds []condState
	t := sc.Next()
	for t.Kind != ctoken.EOF && !p.over {
		if t.Kind == ctoken.Newline {
			t = sc.Next()
			continue
		}
		if t.Kind == ctoken.Hash {
			// Directive: collect the rest of the line and dispatch it. The
			// buffer is free for reuse as soon as dispatch returns — #define
			// copies the body it retains, everything else consumes the tokens
			// synchronously.
			ln := line{pos: t.Pos}
			buf = buf[:0]
			for t = sc.Next(); t.Kind != ctoken.Newline && t.Kind != ctoken.EOF; t = sc.Next() {
				buf = append(buf, t)
			}
			if len(buf) > 0 { // "#" alone is a null directive
				if name := buf[0]; name.Kind == ctoken.Ident || name.Kind == ctoken.Keyword {
					ln.directive = name.Text
					ln.toks = buf[1:]
				} else {
					ln.directive = "#"
					ln.toks = buf
				}
				conds = p.dispatch(ln, conds)
			}
			continue
		}
		if !condsLive(conds) {
			// Dead branch: discard tokens to end of line. Interning is
			// suspended — these tokens are never emitted, so the symbol
			// table has no business seeing their identifiers.
			syms := sc.Syms
			sc.Syms = nil
			for t.Kind != ctoken.Newline && t.Kind != ctoken.EOF {
				t = sc.Next()
			}
			sc.Syms = syms
			continue
		}
		// Ordinary live line: stream tokens directly, falling back to the
		// expander from the first macro invocation on.
		hasMacros := len(p.macros) > 0
		for {
			if hasMacros && t.Kind == ctoken.Ident && p.bloomHas(t.Text) {
				if _, ok := p.macros[t.Text]; ok {
					buf = buf[:0]
					for ; t.Kind != ctoken.Newline && t.Kind != ctoken.EOF; t = sc.Next() {
						buf = append(buf, t)
					}
					mark := len(p.out)
					if p.out = p.expand(p.out, buf, 0, p.hideStack()); p.over {
						break
					}
					for _, et := range p.out[mark:] {
						p.hashTok(et)
					}
					break
				}
			}
			p.hashTok(t)
			p.out = append(p.out, t)
			p.spend(1)
			t = sc.Next()
			if t.Kind == ctoken.Newline || t.Kind == ctoken.EOF {
				break
			}
		}
	}
	if len(conds) != 0 {
		p.errorf(ctoken.Position{File: file, Line: 1, Col: 1}, "unterminated conditional (%d open)", len(conds))
	}
	// A file's lexical errors precede its directive errors: splice the
	// scanner's errors in ahead of those the directives reported.
	if scErrs := sc.Errors(); len(scErrs) > 0 {
		p.errs = append(p.errs, scErrs...)
		copy(p.errs[errStart+len(scErrs):], p.errs[errStart:len(p.errs)-len(scErrs)])
		copy(p.errs[errStart:], scErrs)
	}
	p.lineBuf = buf[:0]
}

func (p *preprocessor) define(ln line) {
	if len(ln.toks) == 0 || ln.toks[0].Kind != ctoken.Ident {
		p.errorf(ln.pos, "#define requires a name")
		return
	}
	name := ln.toks[0].Text
	m := &Macro{Name: name}
	rest := ln.toks[1:]
	// Function-like only if "(" immediately follows the name (no space).
	if len(rest) > 0 && rest[0].Kind == ctoken.LParen &&
		rest[0].Pos.Line == ln.toks[0].Pos.Line &&
		rest[0].Pos.Col == ln.toks[0].Pos.Col+len(name) {
		m.IsFunc = true
		m.Params = []string{}
		i := 1
		for i < len(rest) && rest[i].Kind != ctoken.RParen {
			switch rest[i].Kind {
			case ctoken.Ident, ctoken.Keyword:
				m.Params = append(m.Params, rest[i].Text)
			case ctoken.Ellipsis:
				m.Variadic = true
			case ctoken.Comma:
			default:
				p.errorf(rest[i].Pos, "bad macro parameter %v", rest[i])
			}
			i++
		}
		if i >= len(rest) {
			p.errorf(ln.pos, "unterminated macro parameter list for %s", name)
			return
		}
		m.Body = copyToks(rest[i+1:])
	} else {
		m.Body = copyToks(rest)
	}
	p.setMacro(name, m)
}

// copyToks detaches a macro body from the pooled line buffer it was scanned
// into: macro definitions outlive processFile (they are retained by
// Result.Macros), so they must not alias recycled token storage.
func copyToks(toks []ctoken.Token) []ctoken.Token {
	if len(toks) == 0 {
		return nil
	}
	out := make([]ctoken.Token, len(toks))
	copy(out, toks)
	return out
}

func (p *preprocessor) include(ln line) {
	if len(ln.toks) == 0 {
		p.errorf(ln.pos, "#include requires a path")
		return
	}
	var path string
	t := ln.toks[0]
	if t.Kind == ctoken.String {
		path = strings.Trim(t.Text, `"`)
	} else if t.Kind == ctoken.Lt {
		// <a/b.h>: reassemble the path from tokens up to ">".
		var sb strings.Builder
		for _, tk := range ln.toks[1:] {
			if tk.Kind == ctoken.Gt {
				break
			}
			sb.WriteString(tk.Text)
		}
		path = sb.String()
	} else {
		p.errorf(ln.pos, "malformed #include")
		return
	}
	src, ok := p.opts.Include[path]
	if !ok {
		// Unresolvable header: skip silently (outside the analyzed tree).
		return
	}
	if len(p.includes) > 1 {
		// Nested: part of the enclosing header's expansion.
		p.processFile(path, src)
		return
	}
	key := memoKey{path, p.chain}
	switch seg, record := p.env.find(key, p.root); {
	case seg != nil:
		p.replay(seg)
	case record:
		p.record(key, src)
	default:
		p.expandInclude(path, src)
	}
}

// expandInclude expands a top-level include in place. The fingerprint
// preimage of what it emits goes into a digest of its own, and the file's
// fingerprint takes the include's item: segTag and that digest, which it
// returns. A replay of the include writes the same item.
func (p *preprocessor) expandInclude(path, src string) (sum [sha256.Size]byte) {
	p.flushHash()
	if p.incH == nil {
		p.incH = sha256.New()
	}
	fileH := p.h
	p.h = p.incH
	p.h.Reset()
	p.processFile(path, src)
	p.flushHash()
	p.h.Sum(sum[:0])
	p.h = fileH
	p.hashInclude(&sum)
	return sum
}

// hashInclude appends an include's fingerprint item to the pending batch.
func (p *preprocessor) hashInclude(sum *[sha256.Size]byte) {
	p.hbuf = append(p.hbuf, segTag)
	p.hbuf = append(p.hbuf, sum[:]...)
}

// replay splices a recorded top-level include into the run: its tokens,
// by reference, and its diagnostics, macro operations and fingerprint
// item, in the order expanding the header would have produced them.
func (p *preprocessor) replay(seg *segment) {
	if !p.spend(len(seg.toks)) {
		return
	}
	p.addInclude(seg, len(p.out), true)
	p.errs = append(p.errs, seg.errs...)
	for _, op := range seg.ops {
		p.applyMacro(op.name, op.m)
	}
	p.chain = seg.after
	p.hashInclude(&seg.sum)
	p.replayed++
}

// record expands a top-level include while collecting it into a segment.
// The segment is kept for publication unless the header tried to open the
// root file: its expansion then depends on which file includes it.
func (p *preprocessor) record(key memoKey, src string) {
	seg := &segment{key: key}
	p.rec = seg
	outStart, errStart := len(p.out), len(p.errs)
	seg.sum = p.expandInclude(key.path, src)
	p.rec = nil
	seg.after = p.chain
	p.recorded++
	if slices.Contains(seg.tried, p.root) {
		return
	}
	seg.toks = slices.Clone(p.out[outStart:])
	seg.errs = slices.Clone(p.errs[errStart:])
	p.segs = append(p.segs, seg)
	p.addInclude(seg, outStart, false)
}

// addInclude lists seg's expansion, at index at of out, among the Result's
// Includes, unless it is empty.
func (p *preprocessor) addInclude(seg *segment, at int, spliced bool) {
	if len(seg.toks) > 0 {
		p.incs = append(p.incs, Include{At: at, Toks: seg.toks, Key: IncludeKey{seg.key}, Spliced: spliced})
	}
}

// expand appends toks to out with all macro invocations expanded, and
// returns the extended slice. hide is the stack of macro names currently
// being expanded (standard C recursion rule). Every appended token and
// every invocation is charged to the file's work; past maxFileWork
// expansion stops.
func (p *preprocessor) expand(out, toks []ctoken.Token, depth int, hide []string) []ctoken.Token {
	if depth > p.opts.MaxExpansionDepth {
		if len(toks) > 0 {
			p.errorf(toks[0].Pos, "macro expansion too deep")
		}
		return out
	}
	for i := 0; i < len(toks) && p.spend(1); i++ {
		t := toks[i]
		if t.Kind != ctoken.Ident {
			out = append(out, t)
			continue
		}
		m, ok := p.macros[t.Text]
		if !ok || slices.Contains(hide, t.Text) {
			out = append(out, t)
			continue
		}
		if !m.IsFunc {
			out = p.expand(out, retarget(m.Body, t.Pos), depth+1, append(hide, t.Text))
			continue
		}
		// Function-like: need "(" next, otherwise plain identifier.
		if i+1 >= len(toks) || toks[i+1].Kind != ctoken.LParen {
			out = append(out, t)
			continue
		}
		args, consumed, ok := parseArgs(toks[i+1:])
		if !ok {
			p.errorf(t.Pos, "unterminated argument list for macro %s", t.Text)
			out = append(out, t)
			continue
		}
		i += consumed
		// Expand arguments first (standard order).
		for ai := range args {
			args[ai] = p.expand(nil, args[ai], depth+1, hide)
		}
		body := p.substitute(m, args, t.Pos)
		out = p.expand(out, body, depth+1, append(hide, t.Text))
	}
	return out
}

// parseArgs parses "(a, b, f(c,d))" starting at the LParen. Returns the
// argument token slices, the number of tokens consumed (including parens),
// and whether the list was terminated.
func parseArgs(toks []ctoken.Token) (args [][]ctoken.Token, consumed int, ok bool) {
	depth := 0
	var cur []ctoken.Token
	for i := 0; i < len(toks); i++ {
		t := toks[i]
		switch t.Kind {
		case ctoken.LParen:
			depth++
			if depth > 1 {
				cur = append(cur, t)
			}
		case ctoken.RParen:
			depth--
			if depth == 0 {
				if len(cur) > 0 || len(args) > 0 {
					args = append(args, cur)
				}
				return args, i + 1, true
			}
			cur = append(cur, t)
		case ctoken.Comma:
			if depth == 1 {
				args = append(args, cur)
				cur = nil
			} else {
				cur = append(cur, t)
			}
		default:
			cur = append(cur, t)
		}
	}
	return nil, 0, false
}

// substitute replaces parameters in the macro body with argument tokens and
// handles # stringification and ## pasting.
func (p *preprocessor) substitute(m *Macro, args [][]ctoken.Token, at ctoken.Position) []ctoken.Token {
	argFor := func(name string) ([]ctoken.Token, bool) {
		for pi, pn := range m.Params {
			if pn == name {
				if pi < len(args) {
					return args[pi], true
				}
				return nil, true
			}
		}
		if m.Variadic && name == "__VA_ARGS__" {
			var va []ctoken.Token
			for pi := len(m.Params); pi < len(args); pi++ {
				if pi > len(m.Params) {
					va = append(va, ctoken.Token{Kind: ctoken.Comma, Text: ",", Pos: at})
				}
				va = append(va, args[pi]...)
			}
			return va, true
		}
		return nil, false
	}

	var out []ctoken.Token
	body := retarget(m.Body, at)
	for i := 0; i < len(body); i++ {
		t := body[i]
		// Stringification: #param
		if t.Kind == ctoken.Hash && i+1 < len(body) && body[i+1].Kind == ctoken.Ident {
			if arg, ok := argFor(body[i+1].Text); ok {
				out = append(out, ctoken.Token{
					Kind: ctoken.String,
					Text: strconv.Quote(renderTokens(arg)),
					Pos:  at,
				})
				i++
				continue
			}
		}
		// Token pasting: a ## b
		if i+2 < len(body) && body[i+1].Kind == ctoken.HashHash {
			left := expandOne(t, argFor)
			right := expandOne(body[i+2], argFor)
			pasted := pasteTokens(left, right, at)
			out = append(out, pasted...)
			i += 2
			continue
		}
		if t.Kind == ctoken.Ident {
			if arg, ok := argFor(t.Text); ok {
				out = append(out, arg...)
				continue
			}
		}
		out = append(out, t)
	}
	return out
}

func expandOne(t ctoken.Token, argFor func(string) ([]ctoken.Token, bool)) []ctoken.Token {
	if t.Kind == ctoken.Ident {
		if arg, ok := argFor(t.Text); ok {
			return arg
		}
	}
	return []ctoken.Token{t}
}

// pasteTokens concatenates the last token of left with the first of right,
// re-lexing the result.
func pasteTokens(left, right []ctoken.Token, at ctoken.Position) []ctoken.Token {
	if len(left) == 0 {
		return right
	}
	if len(right) == 0 {
		return left
	}
	glued := left[len(left)-1].Text + right[0].Text
	mid := ctoken.NewScanner(at.File, glued).AppendAll(nil)
	for i := range mid {
		mid[i].Pos = at
	}
	out := append([]ctoken.Token{}, left[:len(left)-1]...)
	out = append(out, mid...)
	out = append(out, right[1:]...)
	return out
}

func retarget(toks []ctoken.Token, at ctoken.Position) []ctoken.Token {
	out := make([]ctoken.Token, len(toks))
	for i, t := range toks {
		t.Pos = at
		out[i] = t
	}
	return out
}

func renderTokens(toks []ctoken.Token) string {
	var sb strings.Builder
	for i, t := range toks {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(t.Text)
	}
	return sb.String()
}

// evalCond evaluates a #if expression. Supported: integer literals,
// defined(X) / defined X, !, &&, ||, comparison and arithmetic on constants,
// and macro names (expanded; undefined names evaluate to 0).
func (p *preprocessor) evalCond(toks []ctoken.Token, pos ctoken.Position) bool {
	// Replace defined(X) before macro expansion.
	var pre []ctoken.Token
	for i := 0; i < len(toks); i++ {
		t := toks[i]
		if t.Kind == ctoken.Ident && t.Text == "defined" {
			name := ""
			if i+1 < len(toks) && toks[i+1].Kind == ctoken.Ident {
				name = toks[i+1].Text
				i++
			} else if i+3 < len(toks) && toks[i+1].Kind == ctoken.LParen &&
				toks[i+2].Kind == ctoken.Ident && toks[i+3].Kind == ctoken.RParen {
				name = toks[i+2].Text
				i += 3
			} else {
				p.errorf(t.Pos, "malformed defined()")
			}
			v := "0"
			if _, ok := p.macros[name]; ok {
				v = "1"
			}
			pre = append(pre, ctoken.Token{Kind: ctoken.Int, Text: v, Pos: t.Pos})
			continue
		}
		pre = append(pre, t)
	}
	expanded := p.expand(nil, pre, 0, p.hideStack())
	// Remaining identifiers are undefined macros: value 0.
	for i, t := range expanded {
		if t.Kind == ctoken.Ident {
			expanded[i] = ctoken.Token{Kind: ctoken.Int, Text: "0", Pos: t.Pos}
		}
	}
	ev := condEval{toks: expanded, p: p, pos: pos}
	v := ev.ternary()
	if !ev.atEnd() && !ev.failed {
		p.errorf(pos, "trailing tokens in #if expression")
	}
	return v != 0
}

// condEval is a tiny precedence-climbing evaluator over constant tokens.
type condEval struct {
	toks   []ctoken.Token
	i      int
	p      *preprocessor
	pos    ctoken.Position
	failed bool
}

func (e *condEval) atEnd() bool { return e.i >= len(e.toks) }

func (e *condEval) peekKind() ctoken.Kind {
	if e.atEnd() {
		return ctoken.EOF
	}
	return e.toks[e.i].Kind
}

func (e *condEval) fail(msg string) int64 {
	if !e.failed {
		e.failed = true
		e.p.errorf(e.pos, "#if: %s", msg)
	}
	e.i = len(e.toks)
	return 0
}

func (e *condEval) primary() int64 {
	if e.atEnd() {
		return e.fail("unexpected end of expression")
	}
	t := e.toks[e.i]
	switch t.Kind {
	case ctoken.Int:
		e.i++
		txt := strings.TrimRight(t.Text, "uUlL")
		v, err := strconv.ParseInt(txt, 0, 64)
		if err != nil {
			return e.fail("bad integer " + t.Text)
		}
		return v
	case ctoken.Char:
		e.i++
		return 1 // character constants are rare in kernel #if; nonzero suffices
	case ctoken.LParen:
		e.i++
		v := e.ternary()
		if e.peekKind() != ctoken.RParen {
			return e.fail("missing )")
		}
		e.i++
		return v
	case ctoken.Not:
		e.i++
		if e.primaryUnary() == 0 {
			return 1
		}
		return 0
	case ctoken.Minus:
		e.i++
		return -e.primaryUnary()
	case ctoken.Plus:
		e.i++
		return e.primaryUnary()
	case ctoken.Tilde:
		e.i++
		return ^e.primaryUnary()
	}
	return e.fail("unexpected token " + t.String())
}

func (e *condEval) primaryUnary() int64 { return e.primary() }

var condPrec = map[ctoken.Kind]int{
	ctoken.Star: 10, ctoken.Slash: 10, ctoken.Percent: 10,
	ctoken.Plus: 9, ctoken.Minus: 9,
	ctoken.Shl: 8, ctoken.Shr: 8,
	ctoken.Lt: 7, ctoken.Gt: 7, ctoken.Le: 7, ctoken.Ge: 7,
	ctoken.Eq: 6, ctoken.Ne: 6,
	ctoken.Amp: 5, ctoken.Caret: 4, ctoken.Pipe: 3,
	ctoken.AmpAmp: 2, ctoken.PipePipe: 1,
}

func (e *condEval) binary(minPrec int) int64 {
	lhs := e.primary()
	for {
		prec, ok := condPrec[e.peekKind()]
		if !ok || prec < minPrec {
			return lhs
		}
		op := e.toks[e.i].Kind
		e.i++
		rhs := e.binary(prec + 1)
		lhs = applyCond(op, lhs, rhs, e)
	}
}

func (e *condEval) ternary() int64 {
	cond := e.binary(1)
	if e.peekKind() != ctoken.Question {
		return cond
	}
	e.i++
	a := e.ternary()
	if e.peekKind() != ctoken.Colon {
		return e.fail("missing : in ?:")
	}
	e.i++
	b := e.ternary()
	if cond != 0 {
		return a
	}
	return b
}

func applyCond(op ctoken.Kind, a, b int64, e *condEval) int64 {
	bool2int := func(v bool) int64 {
		if v {
			return 1
		}
		return 0
	}
	switch op {
	case ctoken.Star:
		return a * b
	case ctoken.Slash:
		if b == 0 {
			return e.fail("division by zero")
		}
		return a / b
	case ctoken.Percent:
		if b == 0 {
			return e.fail("modulo by zero")
		}
		return a % b
	case ctoken.Plus:
		return a + b
	case ctoken.Minus:
		return a - b
	case ctoken.Shl:
		return a << uint(b&63)
	case ctoken.Shr:
		return a >> uint(b&63)
	case ctoken.Lt:
		return bool2int(a < b)
	case ctoken.Gt:
		return bool2int(a > b)
	case ctoken.Le:
		return bool2int(a <= b)
	case ctoken.Ge:
		return bool2int(a >= b)
	case ctoken.Eq:
		return bool2int(a == b)
	case ctoken.Ne:
		return bool2int(a != b)
	case ctoken.Amp:
		return a & b
	case ctoken.Caret:
		return a ^ b
	case ctoken.Pipe:
		return a | b
	case ctoken.AmpAmp:
		return bool2int(a != 0 && b != 0)
	case ctoken.PipePipe:
		return bool2int(a != 0 || b != 0)
	}
	return e.fail("unsupported operator")
}
