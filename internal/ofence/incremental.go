// Incremental per-file pipeline: every FileUnit carries an immutable record
// of its per-stage artifacts (preprocess → parse → cfg → extract), each
// memoized in a content-addressed stage cache (internal/rescache.Stages)
// shared by a Project and all of its clones.
//
// Keying rules:
//
//   - preprocess: SHA-256(environment hash × file name × raw source). The
//     environment hash folds in every header and #define, so a macro change
//     re-keys (dirties) every file.
//   - parse, cfg: the preprocess artifact's content fingerprint (the file
//     name, its own tokens and positions, one digest per top-level include
//     and the diagnostics; see cpp.Result.Fingerprint) —
//     whitespace/comment-only edits hash identically and reuse everything
//     downstream.
//   - extract: the parse fingerprint × the options fingerprint, plus — in
//     interprocedural mode — a key over exactly what the file's extraction
//     observes besides its own tokens (see global.go): for every call name
//     its linearization can reach, the resolution outcome, the defining
//     file and fingerprint of each spliced definition, and the inferred
//     kind. An edit re-extracts the files that observe what it changed,
//     and no others.
//
// Artifact records are copy-on-write: recomputing a stage swaps in a fresh
// record on this project's unit and never mutates the shared one, so a
// clone analyzed concurrently keeps a consistent view. Correctness bar
// (asserted by equivalence_test.go): an incremental re-analysis produces
// byte-identical Result JSON to a cold analysis of the same sources.
package ofence

import (
	"context"
	"fmt"
	"maps"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"ofence/internal/access"
	"ofence/internal/callgraph"
	"ofence/internal/cast"
	"ofence/internal/cparser"
	"ofence/internal/cpp"
	"ofence/internal/ctypes"
	"ofence/internal/memmodel"
	"ofence/internal/obs"
	"ofence/internal/par"
	"ofence/internal/rescache"
)

// Stage-cache names, one per per-file pipeline stage.
const (
	stagePreprocess = "preprocess"
	stageParse      = "parse"
	stageCfg        = "cfg"
	stageExtract    = "extract"
)

// artifacts is one file's immutable per-stage pipeline record. A record is
// never mutated after publication: recomputation builds a new record and
// swaps the unit's pointer under the project lock (copy-on-write), so
// records may be shared freely between a project and its clones.
type artifacts struct {
	// preHash is the content address of the preprocessed token stream
	// (cpp.Result.Fingerprint): the key every downstream stage derives from.
	preHash string
	// ast and errs are the parse-stage outputs (errs combines preprocessor
	// and parser diagnostics, as FileUnit.Errs reports them).
	ast  *cast.File
	errs []error
	// tokens and arenaBytes are frontend cost meters: the preprocessed token
	// count and the parser's AST arena footprint, recorded when the stages
	// ran and carried through cache hits for the frontend.* obs counters.
	tokens     int
	arenaBytes int64
	// prefix is the run of header declarations ast starts with, which the
	// cfg-stage table shares.
	prefix headerPrefix
	// summary is the call-graph summary of ast (callgraph.Summarize),
	// taken by the first run at InterprocDepth ≥ 1; nil until then. Like
	// every artifact here it is a function of preHash.
	summary *callgraph.Summary
	// table is the cfg-stage symbol table; nil until the first extraction.
	table *ctypes.Table
	// sites are the extract-stage barrier sites.
	sites []*access.Site
	// extractFP and extractObserved are the options fingerprint and the
	// observed-input key ("" at InterprocDepth 0) sites were extracted
	// under; both "" before the first extraction. Together with preHash they
	// determine the extract key, so a run whose fingerprint and observed
	// inputs match serves the unit without hashing the key.
	extractFP       string
	extractObserved string
}

// preArtifact is the preprocess-stage cache value.
type preArtifact struct {
	pre  *cpp.Result
	hash string
}

// parseArtifact is the parse-stage cache value.
type parseArtifact struct {
	ast  *cast.File
	errs []error
	// arenaBytes is the AST arena footprint of the parse that built ast.
	arenaBytes int64
	// replayed counts the top-level declarations of ast spliced from the
	// header-declaration memo, and prefix is the run of them ast starts
	// with; rejoined records that the parse fell back to the joined stream.
	replayed int
	prefix   headerPrefix
	rejoined bool
}

// extractArtifact is the extract-stage cache value.
type extractArtifact struct {
	table *ctypes.Table
	sites []*access.Site
}

// projectEnv is a point-in-time snapshot of the preprocessing environment:
// the content hash of the headers and defines, the cpp.Env built from them
// and the header memo that belongs to the Env.
type projectEnv struct {
	hash string
	env  *cpp.Env
	hdrs *headerMemo
}

// headerMemo is what one cpp.Env's files share of their headers' parse:
// the header-declaration memo, and one type table per run of header
// declarations a file splices before its own, keyed by the run (see
// cparser.Parser.HeaderPrefix). It is built, reset and shared with the Env.
type headerMemo struct {
	decls  *cparser.HeaderDecls
	mu     sync.Mutex
	tables map[string]*ctypes.Table
}

// maxHeaderTables bounds the shared tables of a headerMemo, which lives as
// long as its Env: past the bound, a file's table is built whole.
const maxHeaderTables = 1024

// headerPrefix is the run of declarations a parse spliced from memo's
// declarations before the file's own: n of them, from the recordings key
// names.
type headerPrefix struct {
	memo *headerMemo
	n    int
	key  string
}

// table builds the symbol table of ast, which starts with the run hp:
// ast's other declarations over the run's shared table.
func (hp headerPrefix) table(ast *cast.File) *ctypes.Table {
	if hp.n == 0 {
		return ctypes.NewTable(ast)
	}
	h := hp.memo
	h.mu.Lock()
	base := h.tables[hp.key]
	if base == nil && len(h.tables) < maxHeaderTables {
		base = ctypes.NewTable(&cast.File{Decls: ast.Decls[:hp.n]})
		h.tables[hp.key] = base
	}
	h.mu.Unlock()
	if base == nil {
		return ctypes.NewTable(ast)
	}
	return base.Extend(ast.Decls[hp.n:])
}

// envSnapshot returns the environment's content hash, cpp.Env and header
// memo, all cached until AddHeader/Define invalidates them.
func (p *Project) envSnapshot() projectEnv {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.envHash == "" {
		parts := make([]string, 0, 2*(len(p.headers)+len(p.defines)))
		for _, k := range sortedKeys(p.headers) {
			parts = append(parts, "H"+k, p.headers[k])
		}
		for _, k := range sortedKeys(p.defines) {
			parts = append(parts, "D"+k, p.defines[k])
		}
		p.envHash = string(rescache.KeyOf("env-v1", parts...))
	}
	if p.env == nil {
		// The Env keeps its maps, so it gets copies AddHeader/Define will
		// not write to.
		p.env = cpp.NewEnv(cpp.Options{Include: maps.Clone(p.headers), Defines: maps.Clone(p.defines), Syms: p.syms})
		p.hdrs = &headerMemo{decls: cparser.NewHeaderDecls(), tables: map[string]*ctypes.Table{}}
	}
	return projectEnv{hash: p.envHash, env: p.env, hdrs: p.hdrs}
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// frontendWith runs the preprocess and parse stages for (name, src) under
// env. When this caller runs the preprocess stage, both stages run under
// one "parse" span wrapping "preprocess", the span topology of
// cparser.ParseSourceCtx; a cache hit records no spans. Both stages go
// through the stage caches, and the parser splices the declarations of the
// file's top-level includes from env's header-declaration memo. When ctx
// is done inside a stage, the stage stops and caches and records nothing,
// and frontendWith returns ctx's error.
func (p *Project) frontendWith(ctx context.Context, name, src string, env projectEnv) (*artifacts, error) {
	var wrapSpan *obs.Span
	preprocess := func() (any, error) {
		var wrapCtx context.Context
		wrapCtx, wrapSpan = obs.Start(ctx, "parse")
		wrapSpan.SetAttr("file", name)
		pre := env.env.PreprocessCtx(wrapCtx, name, src)
		if err := ctx.Err(); err != nil {
			wrapSpan.End()
			return nil, err
		}
		return &preArtifact{pre: pre, hash: pre.Fingerprint()}, nil
	}
	v, _, err := doStage(ctx, p.stages.Stage(stagePreprocess), rescache.KeyOf("preprocess-v1", env.hash, name, src), preprocess)
	if err != nil {
		return nil, err
	}
	pa := v.(*preArtifact)
	pv, _, err := doStage(ctx, p.stages.Stage(stageParse), rescache.KeyOf("parse-v1", name, pa.hash), func() (any, error) {
		psr := cparser.NewWithHeaders(pa.pre, env.hdrs.decls)
		ast, err := psr.ParseFileCtx(ctx, name)
		if err != nil {
			return nil, err
		}
		errs := append(append([]error{}, pa.pre.Errors...), psr.Errors()...)
		prefix := headerPrefix{memo: env.hdrs}
		prefix.n, prefix.key = psr.HeaderPrefix()
		return &parseArtifact{ast: ast, errs: errs, arenaBytes: psr.ArenaBytes(), replayed: psr.DeclsReplayed(), prefix: prefix, rejoined: psr.Rejoined()}, nil
	})
	if err != nil {
		if wrapSpan != nil {
			wrapSpan.End()
		}
		return nil, err
	}
	ba := pv.(*parseArtifact)
	if wrapSpan != nil {
		wrapSpan.Add("tokens", int64(pa.pre.Len()))
		wrapSpan.Add("decls", int64(len(ba.ast.Decls)))
		wrapSpan.Add("decls_replayed", int64(ba.replayed))
		wrapSpan.Add("decls_parsed", int64(len(ba.ast.Decls)-ba.replayed))
		if ba.rejoined {
			wrapSpan.Add("rejoined", 1)
		}
		wrapSpan.Add("errors", int64(len(ba.errs)))
		wrapSpan.End()
	}
	return &artifacts{
		preHash: pa.hash, ast: ba.ast, errs: ba.errs,
		tokens: pa.pre.Len(), arenaBytes: ba.arenaBytes, prefix: ba.prefix,
	}, nil
}

// doStage is cache.Do for a stage that fails only when its context is
// done. A caller that joined another caller's computation whose context
// was done computes again while its own ctx is live.
func doStage(ctx context.Context, cache *rescache.Cache, k rescache.Key, fn func() (any, error)) (v any, hit bool, err error) {
	for {
		v, hit, err = cache.Do(k, fn)
		if err == nil || ctx.Err() != nil {
			return v, hit, err
		}
	}
}

// refreshStale runs the front-end, before any extraction, for stale units
// (recorded or replaced since the last run, or dirtied by Define/AddHeader):
// interprocedural analysis needs every parse tree. A unit whose
// preprocessed content is unchanged keeps every artifact, including cached
// sites.
func (p *Project) refreshStale(ctx context.Context, files []*FileUnit, env projectEnv, workers int) {
	var stale []*FileUnit
	p.mu.Lock()
	for _, fu := range files {
		if fu.stale || fu.art == nil {
			stale = append(stale, fu)
		}
	}
	p.mu.Unlock()
	if len(stale) == 0 {
		return
	}
	par.For(len(stale), workers, func(i int) {
		if ctx.Err() != nil {
			return // canceled: stay stale, the next run retries
		}
		p.refreshUnit(ctx, stale[i], env)
	})
}

// refreshUnit runs the front-end for one unit and installs the result,
// returning the unit's current record. It is the only place C source is
// preprocessed and parsed. A unit whose preprocessed content changed gets
// the fresh record; a unit with unchanged content (a replaced unit carries
// its predecessor's record) keeps every cached artifact (table, sites,
// extract key).
func (p *Project) refreshUnit(ctx context.Context, fu *FileUnit, env projectEnv) (*artifacts, error) {
	fresh, err := p.frontendWith(ctx, fu.Name, fu.src, env)
	if err != nil {
		return nil, err // canceled: the unit stays stale
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if fu.art == nil || fu.art.preHash != fresh.preHash {
		fu.art = fresh
		fu.Table, fu.Sites = nil, nil
	}
	fu.AST, fu.Errs = fu.art.ast, fu.art.errs
	fu.stale = false
	return fu.art, nil
}

// extractPlan is what every unit's extraction shares within one
// analysis run. The interprocedural fields are nil at InterprocDepth 0.
type extractPlan struct {
	fp    string
	opts  Options
	cache *rescache.Cache
	// observed holds each file's observed-input key
	// (callgraph.Observations.Key), by position in the run's files.
	observed []string
	// inferred are the barrier semantics the semprop fixpoint inferred, and
	// inferredOnly the names that have them only by inference.
	inferred     map[string]memmodel.BarrierKind
	inferredOnly map[string]bool
	// defs resolves cross-file callees to this run's definitions.
	defs *runDefs
}

// observedAt returns the observed-input key of the i-th file: "" at
// InterprocDepth 0.
func (plan *extractPlan) observedAt(i int) string {
	if plan.observed == nil {
		return ""
	}
	return plan.observed[i]
}

// pipelineFile streams one unit that is not clean (see AnalyzeParallel),
// whose observed-input key is observed, through the per-file pipeline:
// front-end refresh (only when the unit is stale), then the reuse-check →
// table → extract tail. A unit whose preprocessed content is unchanged
// keeps every artifact, including cached sites. Accounting: +reused for
// in-place or shared-cache sites, +recomputed when extraction runs.
func (p *Project) pipelineFile(ectx context.Context, fu *FileUnit, observed string, env projectEnv, plan *extractPlan, reused, recomputed *atomic.Int64) {
	opts := plan.opts
	p.mu.Lock()
	art, stale := fu.art, fu.stale
	p.mu.Unlock()
	if art == nil || stale {
		var err error
		if art, err = p.refreshUnit(ectx, fu, env); err != nil {
			return
		}
	}

	if art.extractFP == plan.fp && art.extractObserved == observed {
		reused.Add(1)
		p.mu.Lock()
		fu.Table, fu.Sites = art.table, art.sites
		p.mu.Unlock()
		return
	}
	want := extractKeyFor(plan.fp, fu.Name, art.preHash, observed)
	v, hit, err := doStage(ectx, plan.cache, want, func() (any, error) {
		recomputed.Add(1)
		table := p.tableFor(fu.Name, art)
		aopts := opts.Access
		aopts.Syms = p.syms
		aopts.InferredSemantics = plan.inferred
		if plan.defs != nil {
			aopts.Resolve = plan.defs.resolver(fu.Name)
		}
		aopts.InterprocDepth = opts.InterprocDepth
		ex := access.NewExtractor(fu.Name, table, aopts)
		sites := ex.ExtractFileCtx(ectx, art.ast)
		if err := ectx.Err(); err != nil {
			return nil, err
		}
		return &extractArtifact{table: table, sites: sites}, nil
	})
	if err != nil {
		return // canceled: the unit keeps its record
	}
	if hit {
		reused.Add(1)
	}
	ea := v.(*extractArtifact)
	next := *art
	next.table, next.sites, next.extractFP, next.extractObserved = ea.table, ea.sites, plan.fp, observed
	p.mu.Lock()
	fu.art = &next
	fu.Table, fu.Sites = ea.table, ea.sites
	p.mu.Unlock()
}

// tableFor returns the cfg-stage symbol table for one file, memoized under
// the file's content hash so an options-only change rebuilds extraction but
// not the table.
func (p *Project) tableFor(name string, art *artifacts) *ctypes.Table {
	if art.table != nil {
		return art.table
	}
	v, _, _ := p.stages.Stage(stageCfg).Do(rescache.KeyOf("cfg-v1", name, art.preHash), func() (any, error) {
		return art.prefix.table(art.ast), nil
	})
	return v.(*ctypes.Table)
}

// extractKeyFor builds the extract-stage key: options fingerprint × file
// name × content hash, plus the file's observed-input key
// when cross-file analysis is on.
func extractKeyFor(fp, name, preHash, observed string) rescache.Key {
	if observed == "" {
		return rescache.KeyOf(fp, "extract-v2", name, preHash)
	}
	return rescache.KeyOf(fp, "extract-v2", name, preHash, observed)
}

// IncrementalStats summarizes how much per-file work one AnalyzeParallel call
// reused. Reused counts files whose sites came from their artifact record
// or the shared extract cache; Recomputed counts files whose extraction
// actually ran. The struct is deliberately not part of ResultView: the
// serialized result of an incremental run must stay byte-identical to a
// cold run's.
type IncrementalStats struct {
	// FilesTotal is the number of files in the analysis.
	FilesTotal int
	// FilesReused is how many files' extraction was served from cache.
	FilesReused int
	// FilesRecomputed is how many files' extraction ran this call.
	FilesRecomputed int
}

// Fingerprint folds every option that can change analysis results into a
// stable string for content-addressed caching. Workers is deliberately
// excluded: it changes scheduling, never output. The serving subsystem uses
// the same fingerprint for its whole-result cache keys.
func (o Options) Fingerprint() string {
	return fmt.Sprintf("ofence-v2|ww=%d|rw=%d|inline=%d|ip=%d|maxu=%d|min=%d|once=%t|minconf=%g|generic=%s|wake=%s|sem=%s",
		o.Access.WriteWindow, o.Access.ReadWindow, o.Access.InlineDepth,
		o.InterprocDepth, o.Access.MaxUnits, o.MinSharedObjects, o.CheckOnce,
		o.MinConfidence,
		strings.Join(o.GenericStructs, ","),
		strings.Join(o.Access.ExtraWakeUps, ","),
		strings.Join(o.Access.ExtraBarrierSemantics, ","))
}

// StageStats snapshots the per-stage artifact cache counters (hits, misses,
// singleflight joins, evictions, entries), keyed by stage name. The caches
// are shared with clones, so the numbers aggregate the whole clone family.
func (p *Project) StageStats() map[string]rescache.Stats {
	return p.stages.Stats()
}
