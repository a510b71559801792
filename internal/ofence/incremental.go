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
//   - parse, cfg: the preprocess artifact's content fingerprint (tokens,
//     positions and diagnostics) — whitespace/comment-only edits hash
//     identically and reuse everything downstream.
//   - extract: the parse fingerprint × the options fingerprint, plus — in
//     interprocedural mode — the content hash of the file's transitive
//     call-graph dependency closure, so editing a callee conservatively
//     re-extracts every (transitive) caller instead of reusing sites built
//     over stale inferred semantics.
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
	"sort"
	"strings"
	"sync/atomic"

	"ofence/internal/access"
	"ofence/internal/cast"
	"ofence/internal/cparser"
	"ofence/internal/cpp"
	"ofence/internal/ctypes"
	"ofence/internal/memmodel"
	"ofence/internal/obs"
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
	// table is the cfg-stage symbol table; nil until the first extraction.
	table *ctypes.Table
	// sites are the extract-stage barrier sites.
	sites []*access.Site
	// extractFP and extractClosure are the options fingerprint and the
	// dependency-closure key ("" at InterprocDepth 0) sites were extracted
	// under; both "" before the first extraction. Together with preHash they
	// determine the extract key, so a run whose fingerprint and closure
	// match serves the unit without hashing the key.
	extractFP      string
	extractClosure string
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
}

// extractArtifact is the extract-stage cache value.
type extractArtifact struct {
	table *ctypes.Table
	sites []*access.Site
}

// projectEnv is a point-in-time snapshot of the preprocessing environment.
type projectEnv struct {
	include map[string]string
	defines map[string]string
	hash    string
}

// envSnapshot copies the headers/defines under the lock and returns them
// with their content hash (cached until AddHeader/Define invalidates it).
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
	env := projectEnv{
		include: make(map[string]string, len(p.headers)),
		defines: make(map[string]string, len(p.defines)),
		hash:    p.envHash,
	}
	for k, v := range p.headers {
		env.include[k] = v
	}
	for k, v := range p.defines {
		env.defines[k] = v
	}
	return env
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
// cparser.ParseSourceCtx; a cache hit records no spans. Stages go through
// the stage caches unless direct (ReleaseASTs mode) is set: then the LRU
// retains neither token streams nor parse trees — the artifacts record is
// the only reference, and the pipeline drops its ast as soon as extraction
// is done. Direct trees are parsed without the arena, since slab-batched
// nodes would stay pinned by the site records' pointers into them (see
// cparser.NewNoArena).
func (p *Project) frontendWith(ctx context.Context, name, src string, env projectEnv, direct bool) *artifacts {
	var wrapSpan *obs.Span
	preprocess := func() (any, error) {
		var wrapCtx context.Context
		wrapCtx, wrapSpan = obs.Start(ctx, "parse")
		wrapSpan.SetAttr("file", name)
		copts := cpp.Options{Include: env.include, Defines: env.defines, Syms: p.syms}
		pre := cpp.PreprocessCtx(wrapCtx, name, src, copts)
		return &preArtifact{pre: pre, hash: pre.Fingerprint(name)}, nil
	}
	newParser := cparser.New
	if direct {
		newParser = cparser.NewNoArena
	}
	parse := func(pa *preArtifact) (any, error) {
		psr := newParser(pa.pre.Tokens)
		ast := psr.ParseFile(name)
		errs := append(append([]error{}, pa.pre.Errors...), psr.Errors()...)
		return &parseArtifact{ast: ast, errs: errs, arenaBytes: psr.ArenaBytes()}, nil
	}
	var v, pv any
	if direct {
		v, _ = preprocess()
		pv, _ = parse(v.(*preArtifact))
	} else {
		v, _, _ = p.stages.Stage(stagePreprocess).Do(rescache.KeyOf("preprocess-v1", env.hash, name, src), preprocess)
		pa := v.(*preArtifact)
		pv, _, _ = p.stages.Stage(stageParse).Do(rescache.KeyOf("parse-v1", name, pa.hash), func() (any, error) { return parse(pa) })
	}
	pa, ba := v.(*preArtifact), pv.(*parseArtifact)
	if wrapSpan != nil {
		wrapSpan.Add("tokens", int64(len(pa.pre.Tokens)))
		wrapSpan.Add("decls", int64(len(ba.ast.Decls)))
		wrapSpan.Add("errors", int64(len(ba.errs)))
		wrapSpan.End()
	}
	return &artifacts{
		preHash: pa.hash, ast: ba.ast, errs: ba.errs,
		tokens: len(pa.pre.Tokens), arenaBytes: ba.arenaBytes,
	}
}

// refreshStale runs the front-end, before any extraction, for stale units
// (recorded or replaced since the last run, or dirtied by Define/AddHeader)
// and for units whose AST a previous ReleaseASTs run dropped —
// interprocedural analysis needs every parse tree. A unit whose
// preprocessed content is unchanged keeps every artifact, including cached
// sites; a released unit with unchanged content gets the fresh AST grafted
// into its record, keeping cached sites.
func (p *Project) refreshStale(ctx context.Context, files []*FileUnit, env projectEnv, workers int, direct bool) {
	var stale []*FileUnit
	p.mu.Lock()
	for _, fu := range files {
		if fu.stale || fu.art == nil || fu.art.ast == nil {
			stale = append(stale, fu)
		}
	}
	p.mu.Unlock()
	if len(stale) == 0 {
		return
	}
	sem := make(chan struct{}, workers)
	done := make(chan struct{})
	for _, fu := range stale {
		go func(fu *FileUnit) {
			defer func() { done <- struct{}{} }()
			sem <- struct{}{}
			defer func() { <-sem }()
			if ctx.Err() != nil {
				return // canceled: stay stale, the next run retries
			}
			p.refreshUnit(ctx, fu, env, direct)
		}(fu)
	}
	for range stale {
		<-done
	}
}

// refreshUnit runs the front-end for one unit and installs the result,
// returning the unit's current record. It is the only place C source is
// preprocessed and parsed. A unit whose preprocessed content changed gets
// the fresh record; a unit with unchanged content (a replaced unit carries
// its predecessor's record) keeps every cached artifact (table, sites,
// extract key), with the fresh AST grafted in if a ReleaseASTs run dropped
// it.
func (p *Project) refreshUnit(ctx context.Context, fu *FileUnit, env projectEnv, direct bool) *artifacts {
	fresh := p.frontendWith(ctx, fu.Name, fu.src, env, direct)
	p.mu.Lock()
	defer p.mu.Unlock()
	if fu.art == nil || fu.art.preHash != fresh.preHash {
		fu.art = fresh
		fu.Table, fu.Sites = nil, nil
	} else if fu.art.ast == nil {
		next := *fu.art
		next.ast = fresh.ast
		fu.art = &next
	}
	fu.AST, fu.Errs = fu.art.ast, fu.art.errs
	fu.stale = false
	return fu.art
}

// extractPlan is what every unit's extraction shares within one
// analysis run. The interprocedural fields are nil at InterprocDepth 0.
type extractPlan struct {
	fp    string
	opts  Options
	cache *rescache.Cache
	// closures maps each file to its dependency-closure key (closureKeys).
	closures map[string]string
	// inferred are the barrier semantics the semprop fixpoint inferred.
	inferred map[string]memmodel.BarrierKind
	// resolve returns a file's cross-file callee resolver.
	resolve func(file string) func(string) *cast.FuncDecl
}

// pipelineFile streams one unit that is not clean (see AnalyzeParallel)
// through the per-file pipeline: front-end refresh (only when the unit is
// stale or a ReleaseASTs run dropped its AST), then the
// reuse-check → table → extract tail. A unit whose preprocessed content is
// unchanged keeps every artifact, including cached sites. Accounting:
// +reused for in-place or shared-cache sites, +recomputed when extraction
// runs.
func (p *Project) pipelineFile(ectx context.Context, fu *FileUnit, env projectEnv, plan *extractPlan, reused, recomputed *atomic.Int64) {
	opts := plan.opts
	p.mu.Lock()
	art, stale := fu.art, fu.stale
	p.mu.Unlock()
	if art == nil || stale || art.ast == nil {
		art = p.refreshUnit(ectx, fu, env, opts.ReleaseASTs)
	}

	closure := plan.closures[fu.Name]
	if art.extractFP == plan.fp && art.extractClosure == closure {
		reused.Add(1)
		p.mu.Lock()
		fu.Table, fu.Sites = art.table, art.sites
		p.mu.Unlock()
		return
	}
	want := extractKeyFor(plan.fp, fu.Name, art.preHash, closure)
	v, hit, _ := plan.cache.Do(want, func() (any, error) {
		recomputed.Add(1)
		table := p.tableFor(fu.Name, art)
		aopts := opts.Access
		aopts.Syms = p.syms
		aopts.InferredSemantics = plan.inferred
		if plan.resolve != nil {
			aopts.Resolve = plan.resolve(fu.Name)
		}
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
	next.table, next.sites, next.extractFP, next.extractClosure = ea.table, ea.sites, plan.fp, closure
	// Extraction is the AST's last consumer at depth 0: drop it so live
	// parse trees never exceed the in-flight worker count. At depth > 0,
	// analyze drops every AST once all extraction is done.
	release := opts.ReleaseASTs && opts.InterprocDepth == 0
	if release {
		next.ast = nil
	}
	p.mu.Lock()
	fu.art = &next
	if release {
		fu.AST = nil
	}
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
		return ctypes.NewTable(art.ast), nil
	})
	return v.(*ctypes.Table)
}

// extractKeyFor builds the extract-stage key: options fingerprint × file
// name × content hash, plus the interprocedural dependency-closure hash
// when cross-file analysis is on.
func extractKeyFor(fp, name, preHash, closure string) rescache.Key {
	if closure == "" {
		return rescache.KeyOf(fp, "extract-v1", name, preHash)
	}
	return rescache.KeyOf(fp, "extract-v1", name, preHash, closure)
}

// closureKeys returns, per file, a key over its transitive call-graph
// dependency closure: every file whose code the file's interprocedural
// extraction could observe — through spliced callee bodies or through
// inferred barrier semantics, which propagate along call edges. deps is
// callgraph.(*Graph).FileDeps.
//
// The key changes exactly when a file in the closure changes content, so
// keying extraction on it conservatively invalidates every (transitive)
// caller of an edited file while files outside the closure keep their
// cached sites (pinned by TestClosureKeyTracksReachability).
//
// It runs in O(V+E): the file-dependency graph is condensed into strongly
// connected components (iterative Tarjan); each component's hash covers its
// members' sorted (name, preHash) pairs plus its successor components'
// sorted hashes, and a file's key is its component's hash. Tarjan emits a
// component only after every component reachable from it, so one pass in
// emission order has all successor hashes ready. The hashes are structural
// (everything sorted before hashing), hence independent of traversal order.
func closureKeys(deps map[string][]string, files []*FileUnit) map[string]string {
	n := len(files)
	names := make([]string, n)
	preOf := make([]string, n)
	idxOf := make(map[string]int, n)
	for i, fu := range files {
		names[i] = fu.Name
		idxOf[fu.Name] = i
		if fu.art != nil {
			preOf[i] = fu.art.preHash
		}
	}
	adj := make([][]int, n)
	for i, nm := range names {
		for _, d := range deps[nm] {
			if j, ok := idxOf[d]; ok {
				adj[i] = append(adj[i], j)
			}
		}
	}

	const unvisited = -1
	index := make([]int, n)
	low := make([]int, n)
	comp := make([]int, n)
	onstack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
		comp[i] = unvisited
	}
	var stack []int
	var comps [][]int
	next := 0
	type frame struct{ v, ei int }
	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		onstack[root] = true
		frames := []frame{{root, 0}}
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.ei < len(adj[f.v]) {
				w := adj[f.v][f.ei]
				f.ei++
				if index[w] == unvisited {
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onstack[w] = true
					frames = append(frames, frame{w, 0})
				} else if onstack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				if pv := frames[len(frames)-1].v; low[v] < low[pv] {
					low[pv] = low[v]
				}
			}
			if low[v] == index[v] {
				var members []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onstack[w] = false
					comp[w] = len(comps)
					members = append(members, w)
					if w == v {
						break
					}
				}
				comps = append(comps, members)
			}
		}
	}

	hash := make([]string, len(comps))
	for c, members := range comps {
		mnames := make([]string, len(members))
		for k, v := range members {
			mnames[k] = names[v]
		}
		sort.Strings(mnames)
		parts := make([]string, 0, 2*len(mnames))
		for _, nm := range mnames {
			parts = append(parts, nm, preOf[idxOf[nm]])
		}
		succSeen := map[int]bool{}
		var succ []string
		for _, v := range members {
			for _, w := range adj[v] {
				if comp[w] != c && !succSeen[comp[w]] {
					succSeen[comp[w]] = true
					succ = append(succ, hash[comp[w]])
				}
			}
		}
		sort.Strings(succ)
		hash[c] = string(rescache.KeyOf("closure-v2", append(parts, succ...)...))
	}
	out := make(map[string]string, n)
	for i, nm := range names {
		out[nm] = hash[comp[i]]
	}
	return out
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
