package cparser

import (
	"crypto/sha256"
	"encoding/binary"
	"slices"
	"sync"

	"ofence/internal/cast"
	"ofence/internal/cpp"
)

// maxVariants bounds the recorded parses kept per include key, as
// cpp.Env bounds its recorded expansions per header: a header included
// after ever-changing typedef histories would otherwise grow one variant
// per history for as long as the memo lives. Past the bound, further
// variants are simply parsed in place.
const maxVariants = 16

// HeaderDecls is the header-declaration memo of one preprocessing
// environment: for a top-level #include (a cpp.Include) the top-level
// declarations, diagnostics and typedef names that parsing its tokens
// produced, keyed by its cpp.IncludeKey and the includer's typedef
// history before it. A parser that meets the same include after the same
// history splices the recorded declarations in instead of parsing the
// header's tokens again (see NewWithHeaders); its output is identical
// either way.
//
// A HeaderDecls belongs to one cpp.Env, whose Results' include keys it
// compares, and lives as long as it. It is safe for concurrent use. The
// declarations it hands out are shared by every file that splices them,
// so they are read-only.
type HeaderDecls struct {
	mu   sync.Mutex
	memo map[declKey]*declSegment
	// variants counts the segments memo holds per include key.
	variants map[cpp.IncludeKey]int
	// ids is the number of segments memo was given.
	ids uint64
}

// NewHeaderDecls returns an empty memo.
func NewHeaderDecls() *HeaderDecls {
	return &HeaderDecls{memo: map[declKey]*declSegment{}, variants: map[cpp.IncludeKey]int{}}
}

// declKey names one recorded parse: the include and the typedef history
// before it. Parsing depends on the tokens, which the include key fixes,
// and on the set of typedef names, which the history fixes.
type declKey struct {
	inc      cpp.IncludeKey
	typedefs typedefChain
}

// declSegment is the recorded parse of one top-level include. A segment
// whose parse read past the include's end is recorded as open, with
// nothing else: the include is parsed in place in every file.
type declSegment struct {
	// id tells the segment apart from the memo's others (see
	// Parser.HeaderPrefix).
	id    uint64
	open  bool
	decls []cast.Decl
	errs  []error
	// typedefs are the names the header made typedefs, in order; after is
	// the typedef history once they are added.
	typedefs []string
	after    typedefChain
}

// typedefChain is a running digest of the typedef names a file added, in
// order.
type typedefChain [sha256.Size]byte

// next returns c extended by name, encoding it into buf, which it returns
// for reuse.
func (c typedefChain) next(buf []byte, name string) (typedefChain, []byte) {
	buf = append(buf[:0], c[:]...)
	buf = binary.AppendUvarint(buf, uint64(len(name)))
	buf = append(buf, name...)
	return sha256.Sum256(buf), buf
}

// find returns the recorded parse under key, or reports whether the
// include has room for another recorded variant.
func (h *HeaderDecls) find(key declKey) (seg *declSegment, record bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if seg, ok := h.memo[key]; ok {
		if seg.open {
			return nil, false
		}
		return seg, false
	}
	return nil, h.variants[key.inc] < maxVariants
}

// publish adds seg under key unless the memo already holds a parse there
// (concurrent files can record the same one) or the include has no room.
func (h *HeaderDecls) publish(key declKey, seg *declSegment) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.memo[key]; ok || h.variants[key.inc] >= maxVariants {
		return
	}
	h.ids++
	seg.id = h.ids
	h.memo[key] = seg
	h.variants[key.inc]++
}

// pendingDecls is a header parse a file recorded under key, published to
// the memo when the file's parse completes.
type pendingDecls struct {
	key declKey
	seg *declSegment
}

// record queues seg for publication under key when the file is done, as
// the preprocessor publishes its recordings: a canceled parse records
// nothing.
func (p *Parser) record(key declKey, seg *declSegment) {
	p.pending = append(p.pending, pendingDecls{key, seg})
}

// NewWithHeaders returns a parser over the stream of pre that splices the
// declarations of pre's top-level includes from memo and records those
// memo lacks. pre must come from the cpp.Env that memo belongs to. A nil
// memo splices nothing: every piece is parsed.
func NewWithHeaders(pre *cpp.Result, memo *HeaderDecls) *Parser {
	p := New(pre.Tokens)
	p.pre, p.hdr = pre, memo
	return p
}

// Rejoined reports whether ParseFile parsed the joined stream because a
// declaration read across a piece boundary.
func (p *Parser) Rejoined() bool { return p.rejoined }

// HeaderPrefix reports the run of declarations ParseFile spliced from the
// memo before the first declaration of the file's own: their number, and
// a key naming the recordings they came from, in order. Within one memo,
// equal keys name equal runs of the same shared declarations.
func (p *Parser) HeaderPrefix() (n int, key string) {
	return p.prefix, string(p.prefixKey)
}

// header parses inc, a top-level include, as the next piece of the stream.
// It splices the recorded parse of inc from the memo, or parses inc's
// tokens and records the parse if the memo has room. It reports false when
// the parse read past the tokens' end: its declarations depend on the
// tokens after the header.
func (p *Parser) header(f *cast.File, inc cpp.Include) bool {
	var key declKey
	record := false
	if p.hdr != nil {
		key = declKey{inc.Key, p.chain}
		var seg *declSegment
		if seg, record = p.hdr.find(key); seg != nil {
			p.splice(f, seg)
			return true
		}
	}
	if !record {
		return p.piece(f, inc.Toks, false)
	}
	// The header's nodes get slabs of their own, so the memo never pins
	// the slabs of the file that recorded it.
	arena := p.arena
	decls, errs, added := len(f.Decls), len(p.errs), len(p.added)
	p.arena = new(cast.Arena)
	ok := p.piece(f, inc.Toks, false)
	hdrArena := p.arena
	p.arena = arena
	switch {
	case !ok:
		p.record(key, &declSegment{open: true})
		return false
	case p.done():
		return true // nothing is recorded; ParseFile stops
	}
	p.hdrBytes += hdrArena.Bytes()
	// A parse that hit the error bound may have dropped diagnostics a
	// replay would need.
	if len(p.errs) < maxErrors {
		p.record(key, &declSegment{
			decls:    slices.Clone(f.Decls[decls:]),
			errs:     slices.Clone(p.errs[errs:]),
			typedefs: slices.Clone(p.added[added:]),
			after:    p.chain,
		})
	}
	return true
}

// splice appends seg, a recorded parse, to the file's declarations,
// diagnostics and typedefs.
func (p *Parser) splice(f *cast.File, seg *declSegment) {
	if len(f.Decls) == p.prefix {
		p.prefix += len(seg.decls)
		p.prefixKey = binary.AppendUvarint(p.prefixKey, seg.id)
	}
	f.Decls = append(f.Decls, seg.decls...)
	p.replayed += len(seg.decls)
	for _, err := range seg.errs {
		if len(p.errs) < maxErrors {
			p.errs = append(p.errs, err)
		}
	}
	if len(seg.typedefs) > 0 && p.typedefs == nil {
		p.typedefs = make(map[string]bool, len(seg.typedefs))
	}
	for _, name := range seg.typedefs {
		p.typedefs[name] = true
	}
	p.chain = seg.after
}
