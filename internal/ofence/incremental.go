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
	"ofence/internal/ctoken"
	"ofence/internal/ctypes"
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
	// and parser diagnostics, as AddSource has always reported them).
	ast  *cast.File
	errs []error
	// tokens and arenaBytes are frontend cost meters: the preprocessed token
	// count and the parser's AST arena footprint, recorded when the stages
	// ran and carried through cache hits for the frontend.* obs counters.
	tokens     int
	arenaBytes int64
	// table is the cfg-stage symbol table; nil until the first Analyze.
	table *ctypes.Table
	// sitesKey records the extract-stage key sites were computed under
	// ("" before the first Analyze); Analyze recomputes extraction exactly
	// when the current key differs.
	sitesKey rescache.Key
	// sites are the extract-stage barrier sites.
	sites []*access.Site
	// extractFP is the options fingerprint sites were extracted under at
	// InterprocDepth 0, or "" when they were not: a depth-0 run under the
	// same fingerprint serves the unit without hashing its extract key.
	extractFP string
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

// frontend runs the preprocess and parse stages for (name, src) under env,
// through the stage caches. On a full hit nothing runs and no spans are
// recorded; on a preprocess miss both stages run under the classic
// parse-wrapping-preprocess span topology of cparser.ParseSourceCtx.
func (p *Project) frontend(ctx context.Context, name, src string, env projectEnv) *artifacts {
	return p.frontendWith(ctx, name, src, env, false)
}

// frontendDirect is the uncached front-end used by ReleaseASTs mode: the
// same preprocess+parse under the same span topology, but bypassing the
// stage caches entirely so the LRU retains neither token streams nor parse
// trees — the artifacts record is the only reference, and the pipeline
// drops its ast as soon as extraction is done.
func (p *Project) frontendDirect(ctx context.Context, name, src string, env projectEnv) *artifacts {
	wrapCtx, wrapSpan := obs.Start(ctx, "parse")
	wrapSpan.SetAttr("file", name)
	copts := cpp.Options{Include: env.include, Defines: env.defines, Syms: p.syms}
	if p.legacyFrontend {
		copts.Syms, copts.LegacyLexer = nil, true
	}
	pre := cpp.PreprocessCtx(wrapCtx, name, src, copts)
	// No arena: these trees are built to be dropped after extraction, and
	// slab-batched nodes would stay pinned by the site records' pointers
	// into them (see cparser.NewNoArena).
	psr := cparser.NewNoArena(pre.Tokens)
	if p.legacyFrontend {
		psr = cparser.NewLegacy(pre.Tokens)
	}
	ast := psr.ParseFile(name)
	errs := append(append([]error{}, pre.Errors...), psr.Errors()...)
	wrapSpan.Add("tokens", int64(len(pre.Tokens)))
	wrapSpan.Add("decls", int64(len(ast.Decls)))
	wrapSpan.Add("errors", int64(len(errs)))
	wrapSpan.End()
	return &artifacts{
		preHash: pre.Fingerprint(name), ast: ast, errs: errs,
		tokens: len(pre.Tokens), arenaBytes: psr.ArenaBytes(),
	}
}

// frontendWith routes to the cached or direct front-end.
func (p *Project) frontendWith(ctx context.Context, name, src string, env projectEnv, direct bool) *artifacts {
	if direct {
		return p.frontendDirect(ctx, name, src, env)
	}
	preKey := rescache.KeyOf("preprocess-v1", env.hash, name, src)

	// The "parse" span must start before preprocessing runs and end after
	// parsing finishes, but only exist when this caller actually executes
	// the preprocess stage — cache hits contribute no spans.
	var wrapSpan *obs.Span
	wrapCtx := ctx
	v, _, _ := p.stages.Stage(stagePreprocess).Do(preKey, func() (any, error) {
		wrapCtx, wrapSpan = obs.Start(ctx, "parse")
		wrapSpan.SetAttr("file", name)
		copts := cpp.Options{Include: env.include, Defines: env.defines, Syms: p.syms}
		if p.legacyFrontend {
			copts.Syms, copts.LegacyLexer = nil, true
		}
		pre := cpp.PreprocessCtx(wrapCtx, name, src, copts)
		return &preArtifact{pre: pre, hash: pre.Fingerprint(name)}, nil
	})
	pa := v.(*preArtifact)

	pv, _, _ := p.stages.Stage(stageParse).Do(rescache.KeyOf("parse-v1", name, pa.hash), func() (any, error) {
		psr := cparser.New(pa.pre.Tokens)
		if p.legacyFrontend {
			psr = cparser.NewLegacy(pa.pre.Tokens)
		}
		ast := psr.ParseFile(name)
		errs := append(append([]error{}, pa.pre.Errors...), psr.Errors()...)
		return &parseArtifact{ast: ast, errs: errs, arenaBytes: psr.ArenaBytes()}, nil
	})
	ba := pv.(*parseArtifact)

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

// refreshStale re-runs the front-end for units whose preprocessing
// environment changed since their artifacts were built (Define/AddHeader
// dirty every file) and for units whose AST a previous ReleaseASTs run
// dropped — interprocedural analysis needs every parse tree. A unit whose
// preprocessed content is byte-identical under the new environment keeps
// every artifact, including cached sites; a released unit with unchanged
// content gets the fresh AST grafted into its record, keeping cached sites.
func (p *Project) refreshStale(ctx context.Context, files []*FileUnit, env projectEnv, workers int, direct bool) {
	var stale []*FileUnit
	p.mu.Lock()
	for _, fu := range files {
		if fu.envStale || fu.art == nil || fu.art.ast == nil {
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
				return // canceled: stay stale, the next Analyze retries
			}
			art := p.frontendWith(ctx, fu.Name, fu.src, env, direct)
			p.mu.Lock()
			if fu.art == nil || fu.art.preHash != art.preHash {
				fu.art = art
				fu.AST, fu.Errs = art.ast, art.errs
				fu.Table, fu.Sites = nil, nil
			} else if fu.art.ast == nil {
				next := *fu.art
				next.ast = art.ast
				fu.art = &next
				fu.AST = art.ast
			}
			fu.envStale = false
			p.mu.Unlock()
		}(fu)
	}
	for range stale {
		<-done
	}
}

// pipelineFile streams one unit that is not clean (see analyze) through the
// fused per-file pipeline of the depth-0 Analyze: front-end refresh (only
// when the unit is new or its environment went stale), then the
// reuse-check → table → extract tail. It preserves refreshStale's
// semantics exactly — a unit whose preprocessed content is unchanged keeps
// every artifact, including cached sites — and the classic path's reuse
// accounting: +reused for in-place or shared-cache sites, +recomputed when
// extraction runs.
func (p *Project) pipelineFile(ectx context.Context, fu *FileUnit, env projectEnv, fp string, opts Options, extractCache *rescache.Cache, reused, recomputed *atomic.Int64) {
	p.mu.Lock()
	art, stale, src := fu.art, fu.envStale, fu.src
	p.mu.Unlock()

	if art == nil || stale || art.ast == nil {
		fresh := p.frontendWith(ectx, fu.Name, src, env, opts.ReleaseASTs)
		p.mu.Lock()
		if fu.art == nil || fu.art.preHash != fresh.preHash {
			fu.art = fresh
			fu.AST, fu.Errs = fresh.ast, fresh.errs
			fu.Table, fu.Sites = nil, nil
		} else if fu.art.ast == nil {
			// Released unit, unchanged content: graft the fresh AST, keep
			// every cached artifact (table, sites, key).
			next := *fu.art
			next.ast = fresh.ast
			fu.art = &next
			fu.AST = fresh.ast
		}
		fu.envStale = false
		art = fu.art
		p.mu.Unlock()
	}

	if art.extractFP == fp {
		reused.Add(1)
		p.mu.Lock()
		fu.Table, fu.Sites = art.table, art.sites
		p.mu.Unlock()
		return
	}
	want := extractKeyFor(fp, fu.Name, art.preHash, "")
	v, hit, _ := extractCache.Do(want, func() (any, error) {
		recomputed.Add(1)
		table := p.tableFor(fu.Name, art)
		aopts := opts.Access
		aopts.Syms = p.extractSyms()
		ex := access.NewExtractor(fu.Name, table, aopts)
		sites := ex.ExtractFileCtx(ectx, art.ast)
		return &extractArtifact{table: table, sites: sites}, nil
	})
	if hit {
		reused.Add(1)
	}
	ea := v.(*extractArtifact)
	next := *art
	next.table, next.sites, next.sitesKey, next.extractFP = ea.table, ea.sites, want, fp
	if opts.ReleaseASTs {
		// Extraction is the AST's last consumer at depth 0: drop it so live
		// parse trees never exceed the in-flight worker count.
		next.ast = nil
	}
	p.mu.Lock()
	fu.art = &next
	if opts.ReleaseASTs {
		fu.AST = nil
	}
	fu.Table, fu.Sites = ea.table, ea.sites
	p.mu.Unlock()
}

// extractSyms returns the identifier table extraction should canonicalize
// Object strings through — nil on the legacy oracle path.
func (p *Project) extractSyms() *ctoken.SymTab {
	if p.legacyFrontend {
		return nil
	}
	return p.syms
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

// interprocClosures returns, per file, the content hash of its transitive
// call-graph dependency closure: the sorted (name, preHash) pairs of every
// file whose code the file's interprocedural extraction could observe —
// through spliced callee bodies or through inferred barrier semantics,
// which propagate along call edges. deps is callgraph.(*Graph).FileDeps.
//
// The hash changes exactly when a file in the closure changes content, so
// keying extraction on it conservatively invalidates every (transitive)
// caller of an edited file while files outside the closure keep their
// cached sites.
func interprocClosures(deps map[string][]string, files []*FileUnit) map[string]string {
	preOf := make(map[string]string, len(files))
	for _, fu := range files {
		if fu.art != nil {
			preOf[fu.Name] = fu.art.preHash
		}
	}
	out := make(map[string]string, len(files))
	for _, fu := range files {
		seen := map[string]bool{fu.Name: true}
		queue := []string{fu.Name}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, next := range deps[cur] {
				if !seen[next] {
					seen[next] = true
					queue = append(queue, next)
				}
			}
		}
		names := make([]string, 0, len(seen))
		for n := range seen {
			names = append(names, n)
		}
		sort.Strings(names)
		parts := make([]string, 0, 2*len(names))
		for _, n := range names {
			parts = append(parts, n, preOf[n])
		}
		out[fu.Name] = string(rescache.KeyOf("closure-v1", parts...))
	}
	return out
}

// interprocClosuresSCC computes what interprocClosures computes — a per-file
// key that changes exactly when some file in the transitive dependency
// closure changes content — in O(V+E) instead of one BFS per file. The
// file-dependency graph is condensed into strongly connected components
// (iterative Tarjan); each component's hash covers its members' sorted
// (name, preHash) pairs plus its successor components' sorted hashes, and a
// file's key is its component's hash. Tarjan emits a component only after
// every component reachable from it, so one pass in emission order has all
// successor hashes ready. The hashes are structural (everything sorted
// before hashing), hence independent of traversal order.
//
// The literal key values differ from interprocClosures' closure-v1 keys —
// harmless, they are private extract-cache addresses, never outputs — but
// the invalidation behavior is identical (pinned by TestClosureSCCDifferential).
func interprocClosuresSCC(deps map[string][]string, files []*FileUnit) map[string]string {
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

// IncrementalStats summarizes how much per-file work one Analyze call
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
