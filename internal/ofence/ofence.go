// Package ofence implements the paper's contribution: pairing memory
// barriers by matching the shared objects accessed around them (Algorithm 1)
// and checking the paired code for ordering-constraint deviations (§5).
//
// The entry point is Project: record C sources, then AnalyzeParallel.
// Analysis is file-parallel like the original tool. Results carry the
// pairings, the findings (misplaced accesses, wrong barrier types, repeated
// reads, unneeded barriers, missing READ_ONCE/WRITE_ONCE annotations), and
// statistics used by the evaluation harness.
package ofence

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ofence/internal/access"
	"ofence/internal/callgraph"
	"ofence/internal/cast"
	"ofence/internal/cpp"
	"ofence/internal/ctoken"
	"ofence/internal/ctypes"
	"ofence/internal/obs"
	"ofence/internal/par"
	"ofence/internal/rank"
	"ofence/internal/rescache"
	"ofence/internal/semprop"
)

// Options configures the analysis.
type Options struct {
	// Access holds the exploration windows and inlining depth.
	Access access.Options
	// MinSharedObjects is the pairing threshold (paper: 2).
	MinSharedObjects int
	// Workers bounds file-level parallelism; 0 means GOMAXPROCS.
	Workers int
	// GenericStructs lists struct tags too generic to identify code (e.g.
	// the kernel's list_head); objects of these types never participate in
	// pairing. The paper reports such types as its main source of incorrect
	// pairings (§6.4).
	GenericStructs []string
	// CheckOnce enables the §7 READ_ONCE/WRITE_ONCE extension.
	CheckOnce bool
	// InterprocDepth enables interprocedural mode: a cross-file call graph
	// (internal/callgraph) plus fixpoint barrier-semantics inference
	// (internal/semprop), with exploration allowed to splice callee bodies
	// across file boundaries up to this depth. 0 — the default — preserves
	// the paper's one-level same-file behavior byte for byte.
	InterprocDepth int
	// MinConfidence gates findings by the ranking pass's score
	// (internal/rank): findings scoring below it are dropped from
	// Result.Findings. 0 — the default — disables the gate; every finding
	// is still scored. rank.DefaultThreshold is the tuned operating point
	// recorded in BENCH_confidence.json.
	MinConfidence float64
}

// DefaultOptions returns the paper's parameters.
func DefaultOptions() Options {
	return Options{
		Access:           access.Defaults(),
		MinSharedObjects: 2,
		GenericStructs:   []string{"list_head", "hlist_head", "hlist_node", "rb_node", "rb_root"},
		CheckOnce:        true,
	}
}

// FileUnit is one translation unit of a project. Adding or replacing a
// source records a unit and nothing more: AST, Errs, Table and Sites are
// filled in by analysis, as read-only mirrors of the unit's current
// artifact record.
type FileUnit struct {
	Name  string
	AST   *cast.File
	Table *ctypes.Table
	Sites []*access.Site
	Errs  []error

	// src is the raw source, kept so the front-end can re-run when the
	// macro environment changes (Define/AddHeader dirties every file).
	src string
	// art is the immutable per-stage artifact record (see incremental.go);
	// replaced wholesale on recompute, never mutated, so clones sharing the
	// old record are undisturbed.
	art *artifacts
	// stale marks that the front end must run before art can be used: the
	// unit is new or replaced, or headers/defines changed after art was
	// built. The next analysis re-runs the front end to re-key the file.
	stale bool
}

// Project is a set of files analyzed together. Pairing is global; the
// per-file pipeline (preprocess → parse → cfg → extract) is incremental:
// every stage output is an immutable artifact keyed by the content hash of
// its inputs in a cache shared with clones (see incremental.go), so
// re-analyzing after ReplaceSource re-runs per-file stages only for the
// changed file and replays the cheap project-wide phases over cached sites
// (the paper's incremental mode, §6.1). Adding or replacing a source only
// records it; AnalyzeParallel is the one call that preprocesses, parses and
// extracts.
//
// Concurrency: every method is safe to call concurrently, and
// AnalyzeParallel calls on the SAME project are serialized internally (they
// swap per-unit artifact pointers); a source replaced during a run takes
// effect on the next one. To overlap analyses of one file set, give each
// goroutine its own Clone — clones share the stage caches, so work done by
// one is reused by all.
type Project struct {
	mu    sync.Mutex
	files []*FileUnit
	// index maps each file name to its position in files: names are unique.
	index   map[string]int
	headers map[string]string
	defines map[string]string
	// envHash caches the content hash of headers+defines; "" means
	// recompute (AddHeader/Define reset it).
	envHash string
	// env is the preprocessing environment built from headers+defines, with
	// its memo of recorded #include expansions; nil means rebuild
	// (AddHeader/Define reset it). Shared with clones like syms, in which
	// its recorded token texts are canonical.
	env *cpp.Env
	// hdrs is the header memo of env (see headerMemo), built, reset and
	// shared with it.
	hdrs *headerMemo
	// stages holds the content-addressed per-file artifact caches, shared
	// with clones so equal work is never redone.
	stages *rescache.Stages
	// syms is the project-wide identifier table: the zero-copy tokenizer
	// interns every identifier spelling through it, and extraction
	// canonicalizes Object strings against it, so equal names across files
	// share one backing string. Shared with clones (it only ever grows).
	syms *ctoken.SymTab
	// runMu serializes AnalyzeParallel calls on this project: runs swap the
	// per-unit artifact records, which concurrent runs would race on.
	runMu sync.Mutex
	// global is the call graph and inference the last interprocedural run
	// linked (see global.go). It is published before extraction, so it is
	// not part of last. Shared with clones like last.
	global *globalRecord
	// last is the record the last completed run published, which the next
	// run derives everything after extraction from. It is immutable, so
	// clones share the pointer. Written under runMu and mu, read under
	// either.
	last *runRecord
}

// runRecord is what one completed run leaves for the next to derive from:
// its sites, site table, pairing and verdicts, under one ungated options
// fingerprint. A run under another fingerprint, or whose site table could
// carry nothing over, derives from emptyRun instead: a cold run is a
// derive from the empty record. A record is never mutated after
// publication.
type runRecord struct {
	fp string
	// sites are the run's sites (see dedup.go).
	sites *siteRecord
	// table is the pairing and ranking data layer over sites (see
	// access.BuildSiteTable).
	table *access.SiteTable
	// pairs is the pairing record over table (see pair.go).
	pairs *pairRecord
	// verdicts is the check and rank record over pairs (see verdicts.go).
	verdicts *verdictRecord
}

// emptyRun is the empty run record: no sites, no table, no pairings and
// no verdicts.
var emptyRun = &runRecord{pairs: &pairRecord{}, verdicts: &verdictRecord{census: new(rank.Index)}}

// NewProject returns an empty project.
func NewProject() *Project {
	return &Project{
		index:   map[string]int{},
		headers: map[string]string{},
		defines: map[string]string{},
		stages:  rescache.NewStages(0),
		syms:    ctoken.NewSymTab(),
		last:    emptyRun,
	}
}

// NewProjectWithStages returns an empty project whose per-file stage caches
// are the given family instead of a private one — the way a serving process
// shares one content-addressed artifact tier across every project it
// builds. A nil stages falls back to a private family.
func NewProjectWithStages(stages *rescache.Stages) *Project {
	p := NewProject()
	if stages != nil {
		p.stages = stages
	}
	return p
}

// AddHeader registers an include-resolvable header shared by sources. Every
// existing file is marked stale: header text can reach any translation unit
// through #include, so the next analysis re-keys them all (files whose
// preprocessed content is unchanged keep their cached artifacts).
func (p *Project) AddHeader(path, src string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.headers[path] = src
	p.markEnvChangedLocked()
}

// Define seeds a preprocessor symbol (kernel config) for all sources. Like
// AddHeader, it conservatively dirties every file.
func (p *Project) Define(name, value string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.defines[name] = value
	p.markEnvChangedLocked()
}

// markEnvChangedLocked invalidates the cached environment hash and Env and
// marks every unit for a front-end refresh. Callers hold p.mu.
func (p *Project) markEnvChangedLocked() {
	p.envHash = ""
	p.env, p.hdrs = nil, nil
	for _, fu := range p.files {
		fu.stale = true
	}
}

// AddSource records one C file in the project and returns its unit. Adding
// a name the project already has replaces that file's source in place. The
// next analysis parses the file; parse errors are recorded on the unit and
// in Result.ParseErrors, not fatal (Smatch-style resilience).
func (p *Project) AddSource(name, src string) *FileUnit {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.recordLocked(name, src, true)
}

// SourceFile is one named C source for batch addition.
type SourceFile struct {
	Name string
	Src  string
}

// AddSources records a batch of files, in the order given, as AddSource
// does: a repeated name keeps its first position and its last source.
func (p *Project) AddSources(srcs []SourceFile) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, sf := range srcs {
		p.recordLocked(sf.Name, sf.Src, true)
	}
}

// AnalyzeSourcesCtx records srcs with AddSources and analyzes the project.
func (p *Project) AnalyzeSourcesCtx(ctx context.Context, srcs []SourceFile, opts Options) (*Result, error) {
	p.AddSources(srcs)
	return p.AnalyzeParallel(ctx, opts)
}

// ReplaceSource swaps one file's source, returning the file's unit, or nil
// when no file of that name exists. A byte-identical source leaves the unit
// as is. Otherwise a fresh unit takes the old one's place, so a run already
// holding the old unit is undisturbed; it carries the old artifact record,
// and when the new source preprocesses to the same content (a whitespace or
// comment-only edit) the next analysis keeps its cached extraction.
func (p *Project) ReplaceSource(name, src string) *FileUnit {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.recordLocked(name, src, false)
}

// recordLocked is the one source recorder. A name the project has gets a
// fresh stale unit in its position, carrying the old artifact record,
// unless the source is byte-identical; a new name is appended when add is
// set. Callers hold p.mu.
func (p *Project) recordLocked(name, src string, add bool) *FileUnit {
	i, ok := p.index[name]
	if !ok {
		if !add {
			return nil
		}
		fu := &FileUnit{Name: name, src: src, stale: true}
		p.index[name] = len(p.files)
		p.files = append(p.files, fu)
		return fu
	}
	old := p.files[i]
	if old.src == src {
		return old
	}
	fu := &FileUnit{Name: name, src: src, art: old.art, stale: true}
	p.files[i] = fu
	return fu
}

// Files returns a snapshot of the file units in insertion order.
func (p *Project) Files() []*FileUnit {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*FileUnit, len(p.files))
	copy(out, p.files)
	return out
}

// Clone returns a project with the same headers, defines and parsed files.
// The clone shares the originals' immutable artifact records and the stage
// caches (copy-on-write: recomputation installs fresh records on one
// project without touching the other), so a clone may be analyzed
// concurrently with the original and re-analyzing a clone after one
// ReplaceSource recomputes exactly that file.
func (p *Project) Clone() *Project {
	p.mu.Lock()
	defer p.mu.Unlock()
	q := &Project{
		index:   make(map[string]int, len(p.index)),
		headers: make(map[string]string, len(p.headers)),
		defines: make(map[string]string, len(p.defines)),
		files:   make([]*FileUnit, 0, len(p.files)),
		envHash: p.envHash,
		env:     p.env,
		hdrs:    p.hdrs,
		stages:  p.stages,
		syms:    p.syms,
		global:  p.global,
		last:    p.last,
	}
	for k, v := range p.headers {
		q.headers[k] = v
	}
	for k, v := range p.defines {
		q.defines[k] = v
	}
	for _, fu := range p.files {
		q.files = append(q.files, &FileUnit{
			Name: fu.Name, AST: fu.AST, Table: fu.Table, Sites: fu.Sites,
			Errs: fu.Errs, src: fu.src, art: fu.art, stale: fu.stale,
		})
	}
	for k, v := range p.index {
		q.index[k] = v
	}
	return q
}

// Pairing is a set of barrier sites inferred to run concurrently. Sites[0]
// is the write barrier the pairing was built from.
type Pairing struct {
	Sites []*access.Site
	// Common is the shared-object set the pairing is based on.
	Common []access.Object
	// Weight is the distance product of the winning object pair (lower is
	// a closer, more confident pairing).
	Weight int
}

// Writer returns the originating write-side barrier.
func (pr *Pairing) Writer() *access.Site { return pr.Sites[0] }

// Readers returns the paired sites other than the originating writer.
func (pr *Pairing) Readers() []*access.Site { return pr.Sites[1:] }

// String renders the pairing.
func (pr *Pairing) String() string {
	s := fmt.Sprintf("pairing[w=%d] %s(%s)", pr.Weight, pr.Sites[0].Fn.Name, pr.Sites[0].Name)
	for _, r := range pr.Sites[1:] {
		s += fmt.Sprintf(" <-> %s(%s)", r.Fn.Name, r.Name)
	}
	return s
}

// Timing is the per-phase cost breakdown of one AnalyzeParallel call.
type Timing struct {
	// Extract covers per-file table building and access extraction (zero
	// for files served from the incremental cache).
	Extract time.Duration
	// Pair covers the global Algorithm 1 pass.
	Pair time.Duration
	// Check covers the deviation checkers.
	Check time.Duration
	// Rank covers confidence scoring, sorting and the MinConfidence gate.
	Rank time.Duration
}

// Result is the outcome of AnalyzeParallel.
type Result struct {
	Timing Timing
	// Sites are the run's sites in canonical order. The slice is the
	// project's site record's, which the site table and later Results
	// share: it is read-only, and callers must not modify it.
	Sites    []*access.Site
	Pairings []*Pairing
	// Unpaired are barrier sites not in any pairing.
	Unpaired []*access.Site
	// ImplicitIPC are write barriers left unpaired because a wake-up call
	// closer than any shared object acts as the implicit read barrier.
	ImplicitIPC []*access.Site
	// Findings are the ranked findings in output order. Without a
	// MinConfidence gate the slice is the project's verdict record's (see
	// verdicts.go), which the next run reads to derive its own and may
	// share with later Results: it is read-only, and callers must not
	// modify it.
	Findings []*Finding
	// ParseErrors aggregates per-file diagnostics.
	ParseErrors []error
	// Inferred lists the functions the interprocedural fixpoint classified
	// as implicit barriers (nil when InterprocDepth is 0).
	Inferred []semprop.InferredFn
	// CallGraph holds the interprocedural call-graph statistics (zero when
	// InterprocDepth is 0).
	CallGraph callgraph.Stats
	// Incremental reports per-file cache reuse for this call. Excluded from
	// ResultView so incremental and cold runs serialize identically.
	Incremental IncrementalStats
	// PairStats reports the pairing engine's execution counters (index
	// probes, bound-pruned candidate pairs, carried-over state). Excluded
	// from ResultView so incremental and cold runs serialize identically.
	PairStats PairStats
}

// AnalyzeParallel runs the front end of every recorded or replaced file,
// then extraction, pairing, checking and ranking over the whole project.
// Per-file work and per-pairing checking fan out across a bounded worker
// pool, and the analysis aborts as soon as ctx is canceled or times out,
// returning ctx's error: between work items, and inside a file's
// preprocessing, parsing and extraction and the interprocedural link and
// inference. Files it did not finish stay pending for the next run.
//
// It is the one analysis entry point: the CLIs, the serving subsystem
// (internal/service) and the evaluation route through it.
func (p *Project) AnalyzeParallel(ctx context.Context, opts Options) (*Result, error) {
	if opts.MinSharedObjects <= 0 {
		opts.MinSharedObjects = 2
	}
	// Serialize runs on this project: runs swap per-unit artifact records.
	p.runMu.Lock()
	defer p.runMu.Unlock()
	ctx, asp := obs.Start(ctx, "analyze")
	defer asp.End()
	res := &Result{}
	// Nothing before the gate reads MinConfidence, so flipping it keeps
	// every file's extraction and the check and rank record.
	fp := ungatedFingerprint(opts)

	env := p.envSnapshot()
	p.mu.Lock()
	files := make([]*FileUnit, len(p.files))
	copy(files, p.files)
	p.mu.Unlock()
	asp.Add("files", int64(len(files)))

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	phaseStart := time.Now()
	var reused, recomputed, busyNS atomic.Int64
	plan := extractPlan{fp: fp, opts: opts, cache: p.stages.Stage(stageExtract)}

	if opts.InterprocDepth > 0 {
		// Phase 0: run the front-end for units recorded or replaced since
		// the last run and units dirtied by Define/AddHeader, so every
		// unit's artifacts are keyed by current content. A barrier here is
		// required: the call graph below needs every AST.
		p.refreshStale(ctx, files, env, workers)
		if err := ctx.Err(); err != nil {
			return nil, err
		}

		// Interprocedural mode: the cross-file call graph and the
		// barrier-semantics fixpoint run before extraction, so every file's
		// exploration sees the inferred implicit barriers and can splice
		// callees across file boundaries. Both read only per-file summaries
		// and are reused whole while no summary changed; extraction is keyed
		// on what each file observes of them (see global.go), so a one-file
		// edit re-extracts the edited file and the files that splice what it
		// changed.
		if err := p.globalPhases(ctx, files, opts, workers, res, &plan); err != nil {
			return nil, err
		}
	}

	// Phase 1: per-file extraction. A clean unit — not stale, its record
	// extracted under fp and its observed-input key ("" at depth 0) —
	// is served inline, with no key hashing and no goroutine. The rest enter
	// a worker pool; at depth 0 each worker streams its file end to end —
	// front-end refresh (preprocess+parse, only when the unit is stale) →
	// symbol table → extraction — so there is no front-end barrier
	// and the parse of a later file overlaps the extraction of an earlier
	// one. A key found in the shared stage cache (e.g. computed by a clone)
	// is adopted without running; only genuinely new (file content ×
	// options × observed inputs) combinations execute.
	ectx, esp := obs.Start(ctx, "extract")
	var dirty []int
	p.mu.Lock()
	for i, fu := range files {
		if art := fu.art; art != nil && !fu.stale && art.extractFP == fp && art.extractObserved == plan.observedAt(i) {
			fu.Table, fu.Sites = art.table, art.sites
			reused.Add(1)
			continue
		}
		dirty = append(dirty, i)
	}
	p.mu.Unlock()
	par.For(len(dirty), workers, func(i int) {
		if ctx.Err() != nil {
			return // canceled: leave the unit's artifacts as they were
		}
		start := time.Now()
		p.pipelineFile(ectx, files[dirty[i]], plan.observedAt(dirty[i]), env, &plan, &reused, &recomputed)
		busyNS.Add(int64(time.Since(start)))
	})
	res.Timing.Extract = time.Since(phaseStart)
	if err := ctx.Err(); err != nil {
		esp.End()
		return nil, err
	}

	var frontTokens, frontArena int64
	nSites := 0
	for _, fu := range files {
		nSites += len(fu.Sites)
		res.ParseErrors = append(res.ParseErrors, fu.Errs...)
		if fu.art != nil {
			frontTokens += int64(fu.art.tokens)
			frontArena += fu.art.arenaBytes
		}
	}
	res.Incremental = IncrementalStats{
		FilesTotal:      len(files),
		FilesReused:     int(reused.Load()),
		FilesRecomputed: int(recomputed.Load()),
	}
	esp.Add("files", int64(len(files)))
	esp.Add("files_reused", reused.Load())
	esp.Add("files_recomputed", recomputed.Load())
	esp.Add("sites", int64(nSites))
	esp.Add("frontend.tokens", frontTokens)
	esp.Add("frontend.arena_bytes", frontArena)
	if wall := time.Since(phaseStart); wall > 0 && workers > 0 {
		esp.Add("pipeline.occupancy_pct", busyNS.Load()*100/(int64(wall)*int64(workers)))
	}
	esp.End()
	// Everything after extraction derives from the last completed run's
	// record under the same ungated fingerprint, else from the empty one.
	p.mu.Lock()
	last := p.last
	p.mu.Unlock()
	if last.fp != fp {
		last = emptyRun
	}
	rec := &runRecord{fp: fp}
	if opts.InterprocDepth > 0 {
		// Cross-file inlining makes the same physical barrier visible from
		// callers in other files; keep the richest view, as per-file
		// extraction already does within one file (see dedup.go).
		_, dsp := obs.Start(ctx, "dedup")
		var rechosen int
		rec.sites, rechosen = deriveSites(last.sites, files, true)
		dsp.Add("sites_in", int64(nSites))
		dsp.Add("sites_out", int64(len(rec.sites.sites)))
		dsp.Add("ids_rechosen", int64(rechosen))
		dsp.End()
	} else {
		// Every site, in canonical order (see dedup.go).
		rec.sites, _ = deriveSites(last.sites, files, false)
	}
	res.Sites = rec.sites.sites

	// Phase 2: global pairing (Algorithm 1), on this goroutine (see
	// pair.go). The run's site table derives from the last run's, so an
	// edit re-interns and re-vectorizes only what it changed; pairing and
	// ranking share it. Pairing derives from the last run's pair record:
	// only the writers whose objects the edit touched search again.
	phaseStart = time.Now()
	pctx, psp := obs.Start(ctx, "pair")
	tbl, diff := access.BuildSiteTable(last.table, res.Sites, opts.GenericStructs)
	rec.table = tbl
	if diff == nil {
		// The table carried nothing over: pairing and verdicts derive from
		// the empty record.
		last, diff = emptyRun, access.DiffFromEmpty(len(res.Sites))
	}
	pairer := newPairer(tbl, opts, last, diff)
	res.Pairings, res.Unpaired, res.ImplicitIPC = pairer.run(pctx)
	res.PairStats = pairer.stats
	psp.Add("pairings", int64(len(res.Pairings)))
	psp.Add("unpaired", int64(len(res.Unpaired)))
	psp.Add("implicit_ipc", int64(len(res.ImplicitIPC)))
	psp.Add("candidates_pruned", res.PairStats.Pruned)
	psp.Add("candidates_pruned_bound", res.PairStats.PrunedBound)
	psp.Add("index_probes", res.PairStats.IndexProbes)
	var reusedInterner int64
	if res.PairStats.InternerReused {
		reusedInterner = 1
	}
	psp.Add("interner_reused", reusedInterner)
	psp.Add("sites_vectorized", int64(res.PairStats.SitesVectorized))
	psp.Add("writers_searched", int64(res.PairStats.WritersSearched))
	psp.Add("pairings_reused", int64(res.PairStats.PairingsReused))
	psp.Add("objects_dirty", int64(res.PairStats.ObjectsDirty))
	psp.End()
	res.Timing.Pair = time.Since(phaseStart)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Phases 3 and 4: checking, fanned out per pairing, then confidence
	// ranking (internal/rank). Both derive from the record's verdicts (see
	// verdicts.go): only pairings the edit changed are checked, and only
	// findings whose evidence moved are re-scored.
	phaseStart = time.Now()
	_, ksp := obs.Start(ctx, "check")
	ck := &checker{opts: opts}
	v, err := ck.check(ctx, last.verdicts, pairer, res, workers)
	if err != nil {
		ksp.End()
		return nil, err
	}
	ksp.Add("findings", int64(v.total))
	ksp.Add("pairings_checked", int64(v.checked))
	ksp.Add("pairings_reused", int64(len(v.items)-v.checked))
	ksp.End()
	res.Timing.Check = time.Since(phaseStart)

	phaseStart = time.Now()
	rec.verdicts = v.rank(ctx, last.verdicts, res, opts, tbl, diff, plan.inferredOnly, workers)
	res.Timing.Rank = time.Since(phaseStart)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Only a completed run publishes. The pair record keeps the pairings
	// check settled on, so the next check finds them by pointer.
	rec.pairs = pairer.rec
	p.mu.Lock()
	p.last = rec
	p.mu.Unlock()
	return res, nil
}
