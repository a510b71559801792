package cpp

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"slices"
	"sync"

	"ofence/internal/ctoken"
	"ofence/internal/obs"
)

// maxVariants bounds the recorded expansions kept per header path. An Env
// outlives the files it preprocesses, so a header that files include after
// different #define histories, or that one file keeps including as its
// defines are edited, would otherwise grow one variant per history for as
// long as the Env lives; past the bound, further variants are simply
// preprocessed in place.
const maxVariants = 16

// Env is one preprocessing environment: the Options every file is
// preprocessed under plus a memo of recorded top-level #include expansions.
// A file that includes a header records what the include did — the tokens
// it emitted, its diagnostics, its #define/#undef operations and the
// digest its tokens enter the fingerprint as — and every later file that
// includes the header after the same #define/#undef history splices the
// record in instead of re-lexing the header. The output is identical either way. A file's
// recordings are published when the file is done, so a one-file Env never
// replays: it is the oracle the memo is tested against.
//
// An Env is safe for concurrent use. Its memo lives as long as the Env, so
// an Env belongs to one set of headers and defines: build a new one when
// they change.
type Env struct {
	opts Options
	// defines is Options.Defines parsed once; the *Macro values are shared
	// by every file's table.
	defines map[string]*Macro

	mu   sync.Mutex
	memo map[memoKey]*segment
	// variants counts the segments memo holds per header path.
	variants map[string]int
}

// memoKey names one recorded expansion: the header path and the chain of
// the includer's #define/#undef operations before the include. Every file
// of an Env starts from the same table, so an equal chain means an equal
// macro table.
type memoKey struct {
	path  string
	chain chain
}

// Include is one top-level #include of a Result, whose expansion is
// Toks. An include the run expanded is Result.Tokens[At:At+len(Toks)]. A
// replayed one is Spliced: its Toks are the Env memo's, shared by every
// file that replays it and read-only, and the stream has them just before
// Result.Tokens[At]. Within one Env, the expansions of Includes with equal
// Keys are equal token for token, in every file.
type Include struct {
	At      int
	Toks    []ctoken.Token
	Key     IncludeKey
	Spliced bool
}

// IncludeKey names a recorded expansion: the header path and the
// includer's #define/#undef history before it. It is comparable.
type IncludeKey struct{ k memoKey }

// chain is a running digest of the #define/#undef operations applied to a
// macro table, in order.
type chain [sha256.Size]byte

// next returns c extended by the operation that defines name as m (nil:
// #undef), encoding it into buf, which it returns for reuse. The encoding
// covers what expansion reads of a definition: its kind, parameters,
// variadic flag and body token kinds and texts. Body positions are left
// out, because expansion retargets every body token to the invocation site.
func (c chain) next(buf []byte, name string, m *Macro) (chain, []byte) {
	str := func(s string) {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	buf = append(buf[:0], c[:]...)
	str(name)
	switch {
	case m == nil:
		buf = append(buf, 0)
	case !m.IsFunc:
		buf = append(buf, 1)
	case !m.Variadic:
		buf = append(buf, 2)
	default:
		buf = append(buf, 3)
	}
	if m != nil {
		buf = binary.AppendUvarint(buf, uint64(len(m.Params)))
		for _, param := range m.Params {
			str(param)
		}
		buf = binary.AppendUvarint(buf, uint64(len(m.Body)))
		for _, t := range m.Body {
			buf = binary.AppendUvarint(buf, uint64(t.Kind))
			str(t.Text)
		}
	}
	return sha256.Sum256(buf), buf
}

// segment is the recorded expansion of one top-level #include.
type segment struct {
	key memoKey
	// tried holds every path the expansion tried to open, its own first.
	tried []string
	toks  []ctoken.Token
	errs  []error
	// ops are the expansion's #defines (m non-nil) and #undefs (m nil), in
	// order; after is the chain once they are applied.
	ops   []macroOp
	after chain
	// sum is the digest of toks' fingerprint items, which a file that
	// includes the segment hashes in their place (see Result.Fingerprint).
	sum [sha256.Size]byte
}

// macroOp is a #define of name as m, or an #undef when m is nil.
type macroOp struct {
	name string
	m    *Macro
}

// NewEnv returns an environment that preprocesses files under opts. The
// Include and Defines maps must not change while the Env is in use.
func NewEnv(opts Options) *Env {
	if opts.MaxExpansionDepth <= 0 {
		opts.MaxExpansionDepth = 64
	}
	e := &Env{
		opts:     opts,
		defines:  make(map[string]*Macro, len(opts.Defines)),
		memo:     map[memoKey]*segment{},
		variants: map[string]int{},
	}
	for name, body := range opts.Defines {
		toks := ctoken.NewScanner("<define:"+name+">", body).AppendAll(nil)
		e.defines[name] = &Macro{Name: name, Body: toks}
	}
	return e
}

// PreprocessCtx runs the preprocessor over src, attributing positions to
// file. When ctx carries an obs.Tracer, the run is recorded as a
// "preprocess" span with the emitted token and macro counts, the number
// of top-level includes replayed from the memo or recorded into it, and a
// budget_exceeded counter of 1 when the file went over maxFileWork. ctx
// is polled every 4,096 units of that work: once it is done the file
// stops, records nothing into the Env and yields no tokens and ctx's
// error as its one diagnostic.
func (e *Env) PreprocessCtx(ctx context.Context, file, src string) *Result {
	_, sp := obs.Start(ctx, "preprocess")
	defer sp.End()
	sp.SetAttr("file", file)
	res, replayed, recorded, over := e.preprocess(ctx, file, src)
	if over {
		sp.Add("budget_exceeded", 1)
	}
	sp.Add("tokens", int64(res.Len()))
	sp.Add("macros", int64(len(res.Macros)))
	sp.Add("errors", int64(len(res.Errors)))
	sp.Add("includes_replayed", int64(replayed))
	sp.Add("includes_recorded", int64(recorded))
	return res
}

// find returns the recorded expansion under key if replaying it in a file
// named root gives what expanding the header would: root, the one path
// open at a top-level include, must not be among the paths the expansion
// tried to open, so every include cycle check inside it decides the same
// way. Failing that, it reports whether the header has room for another
// recorded variant.
func (e *Env) find(key memoKey, root string) (seg *segment, record bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	seg, ok := e.memo[key]
	switch {
	case !ok:
		return nil, e.variants[key.path] < maxVariants
	case slices.Contains(seg.tried, root):
		return nil, false
	}
	return seg, false
}

// publish adds the segments one file recorded to the memo, dropping those
// it already holds (concurrent files can record the same one) and those
// past maxVariants.
func (e *Env) publish(segs []*segment) {
	if len(segs) == 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, s := range segs {
		if _, ok := e.memo[s.key]; ok || e.variants[s.key.path] >= maxVariants {
			continue
		}
		e.memo[s.key] = s
		e.variants[s.key.path]++
	}
}
