// Incremental per-file pipeline: every FileUnit carries an immutable record
// of its front-end and extraction artifacts (preprocess → parse → symbol
// table → extract). The record is the pipeline's only memo: a unit whose
// record still matches its inputs is served from it, and anything else is
// computed again.
//
// Reuse rules:
//
//   - preprocess runs for every stale unit (recorded or replaced since the
//     last run, or dirtied by Define/AddHeader).
//   - parse and the symbol table run only when the preprocessed content
//     fingerprint (the file name, its own tokens and positions, one digest
//     per top-level include and the diagnostics; see cpp.Result.Fingerprint)
//     differs from the record's, so whitespace/comment-only edits keep the
//     record and everything downstream.
//   - extract runs when the options fingerprint or — in interprocedural
//     mode — the observed-input key the record's sites were extracted under
//     differs. The key covers exactly what the file's extraction observes
//     besides its own tokens (see global.go): for every call name its
//     linearization can reach, the resolution outcome, the defining file and
//     fingerprint of each spliced definition, and the inferred kind. An
//     edit re-extracts the files that observe what it changed, and no
//     others.
//
// A source set back to the content it had before its last replacement is
// served by a one-step undo (see recordLocked): the unit keeps the unit it
// replaced, whose record the restored unit takes over.
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

// artifacts is one file's immutable pipeline record. A record is never
// mutated after publication: recomputation builds a new record and swaps
// the unit's pointer under the project lock (copy-on-write), so records may
// be shared freely between a project and its clones.
type artifacts struct {
	// preHash is the content address of the preprocessed token stream
	// (cpp.Result.Fingerprint): a unit whose fresh preprocess yields the
	// same hash keeps its record.
	preHash string
	// ast and errs are the parse outputs (errs combines preprocessor and
	// parser diagnostics, as FileUnit.Errs reports them).
	ast  *cast.File
	errs []error
	// tokens and arenaBytes are frontend cost meters: the preprocessed token
	// count and the parser's AST arena footprint, recorded when the front
	// end ran, for the frontend.* obs counters.
	tokens     int
	arenaBytes int64
	// table is the symbol table of ast, built by the front end.
	table *ctypes.Table
	// summary is the call-graph summary of ast (callgraph.Summarize),
	// taken by the first run at InterprocDepth ≥ 1; nil until then. Like
	// every artifact here it is a function of preHash.
	summary *callgraph.Summary
	// sites are the extracted barrier sites.
	sites []*access.Site
	// extractFP and extractObserved are the options fingerprint and the
	// observed-input key ("" at InterprocDepth 0) sites were extracted
	// under; both "" before the first extraction. A run whose fingerprint
	// and observed inputs match serves the unit's sites from the record.
	extractFP       string
	extractObserved string
}

// projectEnv is a point-in-time snapshot of the preprocessing environment:
// the cpp.Env built from the headers and defines, and the header memo that
// belongs to it.
type projectEnv struct {
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

// table builds the symbol table of ast, whose first n declarations are
// the run of header declarations key names (see
// cparser.Parser.HeaderPrefix): ast's other declarations over the run's
// shared table.
func (h *headerMemo) table(ast *cast.File, n int, key string) *ctypes.Table {
	if n == 0 {
		return ctypes.NewTable(ast)
	}
	h.mu.Lock()
	base := h.tables[key]
	if base == nil && len(h.tables) < maxHeaderTables {
		base = ctypes.NewTable(&cast.File{Decls: ast.Decls[:n]})
		h.tables[key] = base
	}
	h.mu.Unlock()
	if base == nil {
		return ctypes.NewTable(ast)
	}
	return base.Extend(ast.Decls[n:])
}

// envSnapshot returns the environment's cpp.Env and header memo, cached
// until AddHeader/Define invalidates them.
func (p *Project) envSnapshot() projectEnv {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.env == nil {
		// The Env keeps its maps, so it gets copies AddHeader/Define will
		// not write to.
		p.env = cpp.NewEnv(cpp.Options{Include: maps.Clone(p.headers), Defines: maps.Clone(p.defines), Syms: p.syms})
		p.hdrs = &headerMemo{decls: cparser.NewHeaderDecls(), tables: map[string]*ctypes.Table{}}
	}
	return projectEnv{env: p.env, hdrs: p.hdrs}
}

// frontendWith runs the front end for (name, src) under env: preprocess,
// then, unless the preprocessed content is old's (old may be nil), parse
// and the symbol table. All of it runs under one "parse" span wrapping
// "preprocess", the span topology of cparser.ParseSourceCtx. The parser
// splices the declarations of the file's top-level includes from env's
// header-declaration memo, and the table shares the memo's table of the
// header declarations the file starts with. It returns old when the
// content is unchanged. When ctx is done inside a stage, the stage stops,
// and frontendWith returns ctx's error.
func frontendWith(ctx context.Context, name, src string, env projectEnv, old *artifacts) (*artifacts, error) {
	wctx, sp := obs.Start(ctx, "parse")
	defer sp.End()
	sp.SetAttr("file", name)
	pre := env.env.PreprocessCtx(wctx, name, src)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	hash := pre.Fingerprint()
	sp.Add("tokens", int64(pre.Len()))
	if old != nil && old.preHash == hash {
		return old, nil
	}
	psr := cparser.NewWithHeaders(pre, env.hdrs.decls)
	ast, err := psr.ParseFileCtx(ctx, name)
	if err != nil {
		return nil, err
	}
	errs := append(append([]error{}, pre.Errors...), psr.Errors()...)
	replayed := psr.DeclsReplayed()
	sp.Add("decls", int64(len(ast.Decls)))
	sp.Add("decls_replayed", int64(replayed))
	sp.Add("decls_parsed", int64(len(ast.Decls)-replayed))
	if psr.Rejoined() {
		sp.Add("rejoined", 1)
	}
	sp.Add("errors", int64(len(errs)))
	n, key := psr.HeaderPrefix()
	return &artifacts{
		preHash: hash, ast: ast, errs: errs,
		tokens: pre.Len(), arenaBytes: psr.ArenaBytes(), table: env.hdrs.table(ast, n, key),
	}, nil
}

// refreshStale runs the front-end, before any extraction, for stale units
// (recorded or replaced since the last run, or dirtied by Define/AddHeader):
// interprocedural analysis needs every parse tree. A unit whose
// preprocessed content is unchanged keeps every artifact, including recorded
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
// a fresh record; a unit with unchanged content (a replaced unit carries
// its predecessor's record) keeps every artifact (table, sites, extract
// key).
func (p *Project) refreshUnit(ctx context.Context, fu *FileUnit, env projectEnv) (*artifacts, error) {
	p.mu.Lock()
	old := fu.art
	p.mu.Unlock()
	art, err := frontendWith(ctx, fu.Name, fu.src, env, old)
	if err != nil {
		return nil, err // canceled: the unit stays stale
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if art != fu.art {
		fu.art = art
		fu.Table, fu.Sites = nil, nil
	}
	fu.AST, fu.Errs = art.ast, art.errs
	fu.stale = false
	return art, nil
}

// extractPlan is what every unit's extraction shares within one
// analysis run. The interprocedural fields are nil at InterprocDepth 0.
type extractPlan struct {
	fp   string
	opts Options
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
// front-end refresh (only when the unit is stale), then extraction unless
// the record's sites were extracted under plan's fingerprint and observed.
// Accounting: +reused when the record's sites serve, +recomputed when
// extraction runs.
func (p *Project) pipelineFile(ectx context.Context, fu *FileUnit, observed string, env projectEnv, plan *extractPlan, reused, recomputed *atomic.Int64) {
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
	recomputed.Add(1)
	aopts := plan.opts.Access
	aopts.Syms = p.syms
	aopts.InferredSemantics = plan.inferred
	if plan.defs != nil {
		aopts.Resolve = plan.defs.resolver(fu.Name)
	}
	aopts.InterprocDepth = plan.opts.InterprocDepth
	sites := access.NewExtractor(fu.Name, art.table, aopts).ExtractFileCtx(ectx, art.ast)
	if ectx.Err() != nil {
		return // canceled: the unit keeps its record
	}
	next := *art
	next.sites, next.extractFP, next.extractObserved = sites, plan.fp, observed
	p.mu.Lock()
	fu.art = &next
	fu.Table, fu.Sites = art.table, sites
	p.mu.Unlock()
}

// IncrementalStats summarizes how much per-file work one AnalyzeParallel call
// reused. Reused counts files whose sites came from their artifact record;
// Recomputed counts files whose extraction actually ran. The struct is deliberately not part of ResultView: the
// serialized result of an incremental run must stay byte-identical to a
// cold run's.
type IncrementalStats struct {
	// FilesTotal is the number of files in the analysis.
	FilesTotal int
	// FilesReused is how many files' sites were served from their record.
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

// StageStats returns nil: a project has no stage caches, its artifact
// records being the pipeline's only memo. It is kept only for the
// benchmark harness, which still reads it, and is deleted with ROADMAP
// item 2's recalibration of that harness.
func (p *Project) StageStats() map[string]rescache.Stats { return nil }
