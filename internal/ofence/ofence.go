// Package ofence implements the paper's contribution: pairing memory
// barriers by matching the shared objects accessed around them (Algorithm 1)
// and checking the paired code for ordering-constraint deviations (§5).
//
// The entry point is Project: add C sources, then Analyze. Analysis is
// file-parallel like the original tool. Results carry the pairings, the
// findings (misplaced accesses, wrong barrier types, repeated reads,
// unneeded barriers, missing READ_ONCE/WRITE_ONCE annotations), and
// statistics used by the evaluation harness.
package ofence

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ofence/internal/access"
	"ofence/internal/callgraph"
	"ofence/internal/cast"
	"ofence/internal/ctoken"
	"ofence/internal/ctypes"
	"ofence/internal/memmodel"
	"ofence/internal/obs"
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
	// ReleaseASTs bounds AST residency on tree-scale runs: the per-file
	// pipeline bypasses the preprocess/parse stage caches and drops each
	// file's AST as soon as its extraction is done, so at InterprocDepth 0
	// the number of live ASTs never exceeds Workers. At interprocedural
	// depth every AST must be live at once for the call-graph phase, so
	// there the win is the resident project afterwards (a warm server
	// retains no parse trees), not the cold peak. Trees are parsed without
	// the AST arena in this mode — slab-batched nodes would stay pinned by
	// the barrier sites' node pointers, defeating the drop. The trade is
	// CPU for RSS — a later re-extraction must re-run the front-end. Excluded from
	// Fingerprint (like Workers, it changes scheduling and residency, never
	// results).
	ReleaseASTs bool
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

// FileUnit is one analyzed translation unit. Name/AST/Table/Sites/Errs are
// read-only mirrors of the unit's current artifact record, refreshed by the
// project whenever a stage recomputes.
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
	// envStale marks that headers/defines changed after art was built; the
	// next Analyze re-runs the front-end to re-key the file.
	envStale bool
}

// Project is a set of files analyzed together. Pairing is global; the
// per-file pipeline (preprocess → parse → cfg → extract) is incremental:
// every stage output is an immutable artifact keyed by the content hash of
// its inputs in a cache shared with clones (see incremental.go), so
// re-analyzing after ReplaceSource re-runs per-file stages only for the
// changed file and replays the cheap project-wide phases over cached sites
// (the paper's incremental mode, §6.1).
//
// Concurrency: every method is safe to call concurrently, and Analyze calls
// on the SAME project are serialized internally (they swap per-unit
// artifact pointers); to overlap analyses of one file set, give each
// goroutine its own Clone — clones share the stage caches, so work done by
// one is reused by all.
type Project struct {
	mu      sync.Mutex
	files   []*FileUnit
	headers map[string]string
	defines map[string]string
	// envHash caches the content hash of headers+defines; "" means
	// recompute (AddHeader/Define reset it).
	envHash string
	// stages holds the content-addressed per-file artifact caches, shared
	// with clones so equal work is never redone.
	stages *rescache.Stages
	// syms is the project-wide identifier table: the zero-copy tokenizer
	// interns every identifier spelling through it, and extraction
	// canonicalizes Object strings against it, so equal names across files
	// share one backing string. Shared with clones (it only ever grows).
	syms *ctoken.SymTab
	// legacyFrontend routes preprocessing through the pre-interning lexer
	// and parsing through the arena-free parser. The frontend overhaul's
	// differential tests and benchmarks use it as the oracle; it is never
	// set in production paths.
	legacyFrontend bool
	// seqGlobal routes the interprocedural global phases through the
	// sequential pre-sharding implementations (callgraph.Build, round-robin
	// semprop, per-file closure BFS, unsharded dedup). The
	// tree-scale overhaul's differential tests and benchmarks use it as the
	// oracle; it is never set in production paths.
	seqGlobal bool
	// runMu serializes Analyze calls on this project: runs swap the
	// per-unit artifact records, which concurrent runs would race on.
	runMu sync.Mutex
	// table is the site table the last run published: the pairing and
	// ranking data layer the next run derives its own from (see
	// access.BuildSiteTable). A published table is immutable, so clones
	// share the pointer. Written under runMu and mu, read under either.
	table *access.SiteTable
}

// NewProject returns an empty project.
func NewProject() *Project {
	return &Project{
		headers: map[string]string{},
		defines: map[string]string{},
		stages:  rescache.NewStages(0),
		syms:    ctoken.NewSymTab(),
	}
}

// AddHeader registers an include-resolvable header shared by sources. Every
// existing file is marked stale: header text can reach any translation unit
// through #include, so the next Analyze re-keys them all (files whose
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

// markEnvChangedLocked invalidates the cached environment hash and marks
// every unit for a front-end refresh. Callers hold p.mu.
func (p *Project) markEnvChangedLocked() {
	p.envHash = ""
	for _, fu := range p.files {
		fu.envStale = true
	}
}

// AddSource parses one C file into the project. Parse errors are recorded on
// the file unit, not fatal (Smatch-style resilience).
func (p *Project) AddSource(name, src string) *FileUnit {
	env := p.envSnapshot()
	art := p.frontend(context.Background(), name, src, env)
	fu := &FileUnit{Name: name, AST: art.ast, Errs: art.errs, src: src, art: art}
	p.mu.Lock()
	p.files = append(p.files, fu)
	p.mu.Unlock()
	return fu
}

// SourceFile is one named C source for batch addition.
type SourceFile struct {
	Name string
	Src  string
}

// AddSources parses a batch of files into the project, fanning the parses
// out over a worker pool sized by GOMAXPROCS. The units are appended in the
// order given, so results are deterministic regardless of scheduling.
func (p *Project) AddSources(srcs []SourceFile) []*FileUnit {
	return p.AddSourcesCtx(context.Background(), srcs)
}

// AddSourcesCtx is AddSources under an observability context: when ctx
// carries an obs.Tracer, each file's preprocessing and parsing is recorded
// as "preprocess"/"parse" spans (see internal/obs).
func (p *Project) AddSourcesCtx(ctx context.Context, srcs []SourceFile) []*FileUnit {
	env := p.envSnapshot()
	units := make([]*FileUnit, len(srcs))
	workers := runtime.GOMAXPROCS(0)
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, sf := range srcs {
		wg.Add(1)
		go func(i int, sf SourceFile) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			art := p.frontend(ctx, sf.Name, sf.Src, env)
			units[i] = &FileUnit{Name: sf.Name, AST: art.ast, Errs: art.errs, src: sf.Src, art: art}
		}(i, sf)
	}
	wg.Wait()

	p.mu.Lock()
	p.files = append(p.files, units...)
	p.mu.Unlock()
	return units
}

// AnalyzeSources adds srcs to the project and analyzes them in one call.
// See AnalyzeSourcesCtx.
func (p *Project) AnalyzeSources(srcs []SourceFile, opts Options) *Result {
	res, _ := p.AnalyzeSourcesCtx(context.Background(), srcs, opts)
	return res
}

// AnalyzeSourcesCtx appends srcs as pending units and analyzes the project.
// Unlike AddSources+Analyze — which parses every file to a barrier before
// any extraction starts — the pending units enter Analyze's pipelined
// schedule (at InterprocDepth 0), so one worker carries a file from
// preprocess through extraction while others are still parsing later files.
// The result is byte-identical to the two-call sequence; only the schedule
// differs.
func (p *Project) AnalyzeSourcesCtx(ctx context.Context, srcs []SourceFile, opts Options) (*Result, error) {
	units := make([]*FileUnit, len(srcs))
	for i, sf := range srcs {
		// envStale routes the unit through the front-end on first analysis,
		// both in the fused pipeline and in refreshStale.
		units[i] = &FileUnit{Name: sf.Name, src: sf.Src, envStale: true}
	}
	p.mu.Lock()
	p.files = append(p.files, units...)
	p.mu.Unlock()
	return p.analyze(ctx, opts)
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
		headers: make(map[string]string, len(p.headers)),
		defines: make(map[string]string, len(p.defines)),
		files:   make([]*FileUnit, 0, len(p.files)),
		envHash: p.envHash,
		stages:  p.stages,
		syms:    p.syms,
		table:   p.table,

		legacyFrontend: p.legacyFrontend,
		seqGlobal:      p.seqGlobal,
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
			Errs: fu.Errs, src: fu.src, art: fu.art, envStale: fu.envStale,
		})
	}
	return q
}

// ReplaceSource swaps one file's source in place, keeping every other
// file's cached artifacts valid. When the new source preprocesses to the
// same content hash (whitespace or comment-only edit), the existing unit —
// including its cached extraction — is kept as is. It returns the unit, or
// nil when no file of that name exists.
func (p *Project) ReplaceSource(name, src string) *FileUnit {
	return p.ReplaceSourceCtx(context.Background(), name, src)
}

// ReplaceSourceCtx is ReplaceSource under an observability context: when the
// front-end actually runs (changed content), it is recorded as
// "preprocess"/"parse" spans on ctx's tracer.
func (p *Project) ReplaceSourceCtx(ctx context.Context, name, src string) *FileUnit {
	p.mu.Lock()
	idx := -1
	for i, fu := range p.files {
		if fu.Name == name {
			idx = i
			break
		}
	}
	p.mu.Unlock()
	if idx < 0 {
		return nil
	}
	env := p.envSnapshot()
	art := p.frontend(ctx, name, src, env)
	p.mu.Lock()
	defer p.mu.Unlock()
	old := p.files[idx]
	if old.art != nil && old.art.preHash == art.preHash && !old.envStale {
		old.src = src
		return old
	}
	fu := &FileUnit{Name: name, AST: art.ast, Errs: art.errs, src: src, art: art}
	p.files[idx] = fu
	return fu
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

// Timing is the per-phase cost breakdown of one Analyze call.
type Timing struct {
	// Extract covers per-file table building and access extraction (zero
	// for files served from the incremental cache).
	Extract time.Duration
	// Pair covers the global Algorithm 1 pass.
	Pair time.Duration
	// Check covers the deviation checkers.
	Check time.Duration
}

// Result is the outcome of Analyze.
type Result struct {
	Timing   Timing
	Sites    []*access.Site
	Pairings []*Pairing
	// Unpaired are barrier sites not in any pairing.
	Unpaired []*access.Site
	// ImplicitIPC are write barriers left unpaired because a wake-up call
	// closer than any shared object acts as the implicit read barrier.
	ImplicitIPC []*access.Site
	Findings    []*Finding
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
	// PairStats reports the pairing engine's execution counters (shards,
	// index probes, bound-pruned candidate pairs). Excluded from ResultView
	// so sequential and parallel runs serialize identically.
	PairStats PairStats
}

// Analyze runs extraction, pairing and checking over every file.
func (p *Project) Analyze(opts Options) *Result {
	res, _ := p.analyze(context.Background(), opts)
	return res
}

// AnalyzeParallel is Analyze with request-scoped cancellation: per-file
// extraction and per-pairing checking fan out across a bounded worker pool,
// and the analysis aborts between work items as soon as ctx is canceled or
// times out, returning ctx's error. This is the entry point the serving
// subsystem (internal/service) and the CLIs route through.
func (p *Project) AnalyzeParallel(ctx context.Context, opts Options) (*Result, error) {
	return p.analyze(ctx, opts)
}

// analyze is the shared pipeline behind Analyze and AnalyzeParallel.
func (p *Project) analyze(ctx context.Context, opts Options) (*Result, error) {
	if opts.MinSharedObjects <= 0 {
		opts.MinSharedObjects = 2
	}
	// Serialize runs on this project: runs swap per-unit artifact records.
	p.runMu.Lock()
	defer p.runMu.Unlock()
	ctx, asp := obs.Start(ctx, "analyze")
	defer asp.End()
	res := &Result{}
	fp := opts.Fingerprint()

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
	extractCache := p.stages.Stage(stageExtract)
	var ectx context.Context
	var esp *obs.Span

	if opts.InterprocDepth == 0 {
		// Phases 0+1 fused into a pipelined per-file schedule: each worker
		// streams one file end to end — front-end refresh (preprocess+parse,
		// only when the unit is stale or new) → symbol table → extraction —
		// so there is no front-end barrier and the parse of a later file
		// overlaps the extraction of an earlier one. Sound only at depth 0,
		// where a file's extraction depends on nothing but that file.
		ectx, esp = obs.Start(ctx, "extract")
		// A clean unit — not stale, its sites extracted at depth 0 under fp —
		// is served inline, with no key hashing and no goroutine; only the
		// rest enter the pool.
		var dirty []*FileUnit
		p.mu.Lock()
		for _, fu := range files {
			if art := fu.art; art != nil && !fu.envStale && art.extractFP == fp {
				fu.Table, fu.Sites = art.table, art.sites
				reused.Add(1)
				continue
			}
			dirty = append(dirty, fu)
		}
		p.mu.Unlock()
		sem := make(chan struct{}, workers)
		var wg sync.WaitGroup
		for _, fu := range dirty {
			wg.Add(1)
			go func(fu *FileUnit) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				if ctx.Err() != nil {
					return // canceled: leave the unit's artifacts as they were
				}
				start := time.Now()
				defer func() { busyNS.Add(int64(time.Since(start))) }()
				p.pipelineFile(ectx, fu, env, fp, opts, extractCache, &reused, &recomputed)
			}(fu)
		}
		wg.Wait()
	} else {
		// Phase 0: re-run the front-end for units dirtied by Define/AddHeader
		// (or whose AST a previous ReleaseASTs run dropped), so every unit's
		// artifacts are keyed by current content. A barrier here is required:
		// the call graph below needs every AST.
		p.refreshStale(ctx, files, env, workers, opts.ReleaseASTs)
		if err := ctx.Err(); err != nil {
			return nil, err
		}

		// Interprocedural mode: build the cross-file call graph and run the
		// barrier-semantics fixpoint before extraction, so every file's
		// exploration sees the inferred implicit barriers and can splice callees
		// across file boundaries. Both phases are cheap and project-wide, so
		// they always run; the per-file extract cache stays sound because its
		// keys fold in each file's dependency-closure hash — a one-file edit
		// re-keys (and so re-extracts) every transitive caller, and only those.
		var resolve func(file string) func(string) *cast.FuncDecl
		var inferredNames map[string]memmodel.BarrierKind
		var closures map[string]string
		{
			cgf := make([]callgraph.File, 0, len(files))
			for _, fu := range files {
				cgf = append(cgf, callgraph.File{Name: fu.Name, AST: fu.AST})
			}
			_, gsp := obs.Start(ctx, "callgraph")
			var g *callgraph.Graph
			if p.seqGlobal {
				g = callgraph.Build(cgf)
			} else {
				g = callgraph.BuildParallel(cgf, workers)
			}
			res.CallGraph = g.Stats()
			gsp.Add("functions", int64(res.CallGraph.Functions))
			gsp.Add("edges", int64(res.CallGraph.Edges))
			gsp.Add("unresolved", int64(res.CallGraph.Unresolved))
			gsp.End()
			_, ssp := obs.Start(ctx, "semprop")
			sopts := semprop.Options{ExtraFull: opts.Access.ExtraBarrierSemantics}
			if p.seqGlobal {
				sopts.Sequential = true
			} else {
				sopts.Workers = workers
			}
			inf := semprop.Infer(g, sopts)
			res.Inferred = inf.Functions()
			ssp.Add("inferred", int64(len(res.Inferred)))
			ssp.Add("sccs", int64(inf.Components))
			ssp.Add("scc_levels", int64(inf.Levels))
			ssp.End()
			inferredNames = inf.NameKinds()
			resolve = g.ResolverFor
			if p.seqGlobal {
				closures = interprocClosures(g.FileDeps(), files)
			} else {
				closures = interprocClosuresSCC(g.FileDeps(), files)
			}
		}

		// Phase 1: per-file extraction, in parallel. A unit whose artifact
		// record already carries sites for the wanted key is served in place; a
		// key found in the shared stage cache (e.g. computed by a clone) is
		// adopted without running; only genuinely new (file content × options ×
		// closure) combinations execute.
		ectx, esp = obs.Start(ctx, "extract")
		sem := make(chan struct{}, workers)
		var wg sync.WaitGroup
		for _, fu := range files {
			p.mu.Lock()
			art := fu.art
			p.mu.Unlock()
			want := extractKeyFor(fp, fu.Name, art.preHash, closures[fu.Name])
			if art.sitesKey == want {
				reused.Add(1)
				p.mu.Lock()
				fu.Table, fu.Sites = art.table, art.sites
				p.mu.Unlock()
				continue
			}
			wg.Add(1)
			go func(fu *FileUnit, art *artifacts, want rescache.Key) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				if ctx.Err() != nil {
					return // canceled: leave the unit's artifacts as they were
				}
				start := time.Now()
				defer func() { busyNS.Add(int64(time.Since(start))) }()
				v, hit, _ := extractCache.Do(want, func() (any, error) {
					recomputed.Add(1)
					table := p.tableFor(fu.Name, art)
					aopts := opts.Access
					aopts.Syms = p.extractSyms()
					aopts.InferredSemantics = inferredNames
					aopts.Resolve = resolve(fu.Name)
					aopts.InterprocDepth = opts.InterprocDepth
					ex := access.NewExtractor(fu.Name, table, aopts)
					sites := ex.ExtractFileCtx(ectx, art.ast)
					return &extractArtifact{table: table, sites: sites}, nil
				})
				if hit {
					reused.Add(1)
				}
				ea := v.(*extractArtifact)
				next := *art
				// extractFP marks depth-0 sites only: these are not.
				next.table, next.sites, next.sitesKey, next.extractFP = ea.table, ea.sites, want, ""
				p.mu.Lock()
				fu.art = &next
				fu.Table, fu.Sites = ea.table, ea.sites
				p.mu.Unlock()
			}(fu, art, want)
		}
		wg.Wait()
		if opts.ReleaseASTs {
			// Extraction is done and the call graph is built: drop every
			// unit's top-level AST reference so steady-state residency is
			// sites and tables, not parse trees. refreshStale re-frontends
			// released units on the next interprocedural run.
			p.mu.Lock()
			for _, fu := range files {
				if fu.art != nil && fu.art.ast != nil {
					next := *fu.art
					next.ast = nil
					fu.art = &next
				}
				fu.AST = nil
			}
			p.mu.Unlock()
		}
	}
	res.Timing.Extract = time.Since(phaseStart)
	if err := ctx.Err(); err != nil {
		esp.End()
		return nil, err
	}

	var frontTokens, frontArena int64
	for _, fu := range files {
		res.Sites = append(res.Sites, fu.Sites...)
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
	esp.Add("sites", int64(len(res.Sites)))
	esp.Add("frontend.tokens", frontTokens)
	esp.Add("frontend.arena_bytes", frontArena)
	if wall := time.Since(phaseStart); wall > 0 && workers > 0 {
		esp.Add("pipeline.occupancy_pct", busyNS.Load()*100/(int64(wall)*int64(workers)))
	}
	esp.End()
	if opts.InterprocDepth > 0 {
		// Cross-file inlining makes the same physical barrier visible from
		// callers in other files; keep the richest view, as per-file
		// extraction already does within one file.
		if p.seqGlobal {
			res.Sites = dedupSites(res.Sites)
		} else {
			res.Sites = dedupSitesSharded(res.Sites, workers)
		}
	}
	sortSites(res.Sites)

	// Phase 2: global pairing (Algorithm 1), sharded over the worker pool
	// (see pair.go; the result is byte-identical at any worker count). The
	// run's site table derives from the last run's, so an edit re-interns
	// and re-vectorizes only what it changed; pairing and ranking share it.
	phaseStart = time.Now()
	pctx, psp := obs.Start(ctx, "pair")
	tbl := access.BuildSiteTable(p.table, res.Sites, opts.GenericStructs, workers)
	p.mu.Lock()
	p.table = tbl
	p.mu.Unlock()
	pairer := newPairer(tbl, opts)
	res.Pairings, res.Unpaired, res.ImplicitIPC = pairer.run(pctx)
	res.PairStats = pairer.stats
	psp.Add("pairings", int64(len(res.Pairings)))
	psp.Add("unpaired", int64(len(res.Unpaired)))
	psp.Add("implicit_ipc", int64(len(res.ImplicitIPC)))
	psp.Add("candidates_pruned", res.PairStats.Pruned)
	psp.Add("candidates_pruned_bound", res.PairStats.PrunedBound)
	psp.Add("index_probes", res.PairStats.IndexProbes)
	psp.Add("pair_shards", int64(res.PairStats.Shards))
	var reusedInterner int64
	if res.PairStats.InternerReused {
		reusedInterner = 1
	}
	psp.Add("interner_reused", reusedInterner)
	psp.Add("sites_vectorized", int64(res.PairStats.SitesVectorized))
	psp.End()
	res.Timing.Pair = time.Since(phaseStart)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Phase 3: checking, fanned out per pairing.
	phaseStart = time.Now()
	_, ksp := obs.Start(ctx, "check")
	ck := &checker{opts: opts}
	findings, err := ck.checkParallel(ctx, res, workers)
	if err != nil {
		ksp.End()
		return nil, err
	}
	res.Findings = findings
	ksp.Add("findings", int64(len(res.Findings)))
	ksp.End()
	res.Timing.Check = time.Since(phaseStart)

	// Phase 4: confidence ranking (internal/rank). Every finding is scored
	// from the outlier census, pairing margins, site richness and semantics
	// provenance; MinConfidence > 0 additionally gates the finding list.
	rankFindings(ctx, res, opts, tbl, workers)
	return res, nil
}

// dedupSites collapses sites with the same canonical barrier identity,
// keeping the richest view (first seen wins ties), preserving input order.
func dedupSites(sites []*access.Site) []*access.Site {
	best := map[string]*access.Site{}
	var order []string
	for _, s := range sites {
		id := s.ID()
		cur, ok := best[id]
		if !ok {
			best[id] = s
			order = append(order, id)
			continue
		}
		if s.Richness() > cur.Richness() {
			best[id] = s
		}
	}
	out := make([]*access.Site, 0, len(order))
	for _, id := range order {
		out = append(out, best[id])
	}
	return out
}

// dedupSitesSharded is dedupSites sharded over the worker pool for
// tree-scale site lists. Sites are sharded by a hash of their canonical
// barrier identity, so every occurrence of one physical barrier lands in
// one shard; each shard scans its sites in ascending input order keeping
// the richest view (first seen wins ties — dedupSites' exact rule) along
// with the input index of the identity's first occurrence, and the merge
// re-sorts winners by that first index. The output is therefore the byte-
// identical site list dedupSites produces, at any worker count.
func dedupSitesSharded(sites []*access.Site, workers int) []*access.Site {
	if workers > 16 {
		workers = 16
	}
	if workers <= 1 || len(sites) < 64 {
		return dedupSites(sites)
	}
	// Phase 1: canonical IDs and shard assignment, computed once per site
	// (ID() canonicalization is the hot part of dedup at tree scale).
	ids := make([]string, len(sites))
	shard := make([]uint8, len(sites))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(sites); i += workers {
				id := sites[i].ID()
				h := uint32(2166136261)
				for j := 0; j < len(id); j++ {
					h ^= uint32(id[j])
					h *= 16777619
				}
				ids[i] = id
				shard[i] = uint8(h % uint32(workers))
			}
		}(w)
	}
	wg.Wait()

	// Phase 2: per-shard keep-richest over that shard's identities.
	type kept struct {
		site  *access.Site
		first int
	}
	perShard := make([][]*kept, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			best := map[string]*kept{}
			var order []*kept
			for i, s := range sites {
				if int(shard[i]) != w {
					continue
				}
				cur, ok := best[ids[i]]
				if !ok {
					k := &kept{site: s, first: i}
					best[ids[i]] = k
					order = append(order, k)
					continue
				}
				if s.Richness() > cur.site.Richness() {
					cur.site = s
				}
			}
			perShard[w] = order
		}(w)
	}
	wg.Wait()

	// Phase 3: merge by first-occurrence index — dedupSites' output order.
	var all []*kept
	for _, sh := range perShard {
		all = append(all, sh...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].first < all[j].first })
	out := make([]*access.Site, len(all))
	for i, k := range all {
		out[i] = k.site
	}
	return out
}

func sortSites(sites []*access.Site) {
	sort.Slice(sites, func(i, j int) bool {
		a, b := sites[i], sites[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Pos.Col < b.Pos.Col
	})
}
