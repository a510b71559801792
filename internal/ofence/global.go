// Global phases at InterprocDepth ≥ 1, with early cutoff.
//
// The call graph and the barrier-semantics inference read each file only
// through its callgraph.Summary, which the front end's artifact record
// keeps next to the sites and is a function of preHash. A run links and
// infers only when a summary changed: the project keeps the last linked
// graph and inference as one immutable globalRecord, stamped with every
// file's summary hash in order, and a run whose stamp is equal reuses it
// whole. Link and infer read nothing but summaries, so the reuse is
// complete by construction. A literal edit changes a fingerprint and no
// summary hash, so it re-links and re-infers nothing.
//
// Extraction is keyed on what it observes (early cutoff in the sense of
// Mokhov, Mitchell and Peyton Jones, Build Systems à la Carte): a file's
// key adds to its own preHash, for every call name its linearization can
// reach within the depth budgets, the resolution outcome ("unresolved"
// included), the inferred kind, and the defining file and current
// fingerprint of each spliced definition (callgraph.Observations). Calls
// inside a spliced body bind with the visibility of the body's own file
// (cfg.Def), so what one definition observes does not depend on where it
// is spliced, and everything but the fingerprints is memoized in the
// record.
package ofence

import (
	"context"
	"slices"
	"sync"

	"ofence/internal/callgraph"
	"ofence/internal/cast"
	"ofence/internal/cfg"
	"ofence/internal/memmodel"
	"ofence/internal/obs"
	"ofence/internal/par"
	"ofence/internal/semprop"
)

// globalRecord is one run's linked call graph and inference. It is never
// mutated after publication, so a project and its clones share it.
type globalRecord struct {
	// names and sums are every file's name and summary in project order,
	// and extra the options the inference reads: the stamp a run must
	// match to reuse the graph and the inference. keys were computed from
	// sums too.
	names    []string
	sums     []*callgraph.Summary
	extra    []string
	graph    *callgraph.Graph
	stats    callgraph.Stats
	kinds    map[string]memmodel.BarrierKind
	inferred []semprop.InferredFn
	// inferredOnly is semprop.InferredOnly(inferred), which ranking reads.
	inferredOnly map[string]bool
	sccs         int
	levels       int
	// obs are the extract-key observations at one pair of depth budgets;
	// a run at other budgets derives a record with its own. keys are
	// every file's observed-input key under obs, by link position.
	obs  *callgraph.Observations
	keys []string
}

// sameStamp reports whether files with summaries sums, under the
// inference options extra, link and infer as the record did. A summary
// is compared by pointer before its hash: a file whose record is unchanged
// keeps its summary.
func (r *globalRecord) sameStamp(files []*FileUnit, sums []*callgraph.Summary, extra []string) bool {
	if len(r.names) != len(files) || !slices.Equal(r.extra, extra) {
		return false
	}
	for i, fu := range files {
		if r.names[i] != fu.Name || (r.sums[i] != sums[i] && r.sums[i].Hash != sums[i].Hash) {
			return false
		}
	}
	return true
}

// deriveKeys returns every file's observed-input key under the record's
// observations for summaries sums, and how many it hashed. Keys of a
// record without them are all hashed; otherwise only the keys of the
// files that read a file whose summary is not the one the record's keys
// were computed from. The record is not modified: changed keys go into a
// copy.
func (r *globalRecord) deriveKeys(sums []*callgraph.Summary) ([]string, int) {
	if r.keys == nil {
		keys := make([]string, len(sums))
		for i := range keys {
			keys[i] = r.obs.Key(i, sums)
		}
		return keys, len(keys)
	}
	var todo []int32
	for j, s := range sums {
		if s != r.sums[j] {
			todo = append(todo, r.obs.Readers(j)...)
		}
	}
	if len(todo) == 0 {
		return r.keys, 0
	}
	slices.Sort(todo)
	todo = slices.Compact(todo)
	keys := slices.Clone(r.keys)
	for _, i := range todo {
		keys[i] = r.obs.Key(int(i), sums)
	}
	return keys, len(todo)
}

// globalPhases summarizes the files that lack a summary, then links and
// infers — or reuses the project's record when no summary changed — and
// fills the interprocedural half of plan: the inferred kinds, the
// cross-file resolver and every file's observed-input key. It runs under
// the "callgraph", "semprop" and "extract_keys" spans. Linking and
// inference poll ctx; a canceled run returns ctx's error and publishes
// nothing.
func (p *Project) globalPhases(ctx context.Context, files []*FileUnit, opts Options, workers int, res *Result, plan *extractPlan) error {
	_, gsp := obs.Start(ctx, "callgraph")
	summarized := p.summarize(files, workers)
	arts := make([]*artifacts, len(files))
	p.mu.Lock()
	for i, fu := range files {
		arts[i] = fu.art
	}
	prev := p.global
	p.mu.Unlock()
	sums := make([]*callgraph.Summary, len(files))
	for i, art := range arts {
		sums[i] = art.summary
	}
	extra := opts.Access.ExtraBarrierSemantics

	rec, cutoff := prev, int64(1)
	if prev == nil || !prev.sameStamp(files, sums, extra) {
		cutoff = 0
		rec = &globalRecord{names: make([]string, len(files)), sums: sums, extra: slices.Clone(extra)}
		for i, fu := range files {
			rec.names[i] = fu.Name
		}
		var err error
		if rec.graph, err = callgraph.LinkCtx(ctx, sums, workers); err != nil {
			gsp.End()
			return err
		}
		rec.stats = rec.graph.Stats()
	}
	gsp.Add("functions", int64(rec.stats.Functions))
	gsp.Add("edges", int64(rec.stats.Edges))
	gsp.Add("unresolved", int64(rec.stats.Unresolved))
	gsp.Add("cutoff", cutoff)
	gsp.Add("files_summarized", int64(summarized))
	gsp.End()

	_, ssp := obs.Start(ctx, "semprop")
	if cutoff == 0 {
		inf, err := semprop.InferCtx(ctx, rec.graph, semprop.Options{ExtraFull: extra, Workers: workers})
		if err != nil {
			ssp.End()
			return err
		}
		rec.kinds = inf.NameKinds()
		rec.inferred = inf.Functions()
		rec.inferredOnly = semprop.InferredOnly(rec.inferred)
		rec.sccs, rec.levels = inf.Components, inf.Levels
	}
	ssp.Add("inferred", int64(len(rec.inferred)))
	ssp.Add("sccs", int64(rec.sccs))
	ssp.Add("scc_levels", int64(rec.levels))
	ssp.Add("cutoff", cutoff)
	ssp.Add("files_summarized", int64(summarized))
	ssp.End()

	// The keys derive from the record's: a file's key moves only with the
	// fingerprints it reads, so only the readers of a file whose summary
	// changed are hashed again.
	_, ksp := obs.Start(ctx, "extract_keys")
	inline, depth := opts.Access.InlineDepth, opts.InterprocDepth
	if rec.obs == nil || rec.obs.Inline != inline || rec.obs.Depth != depth {
		next := *rec
		next.obs, next.keys = rec.graph.Observe(rec.kinds, inline, depth), nil
		rec = &next
	}
	keys, hashed := rec.deriveKeys(sums)
	next := *rec
	next.sums, next.keys = sums, keys
	rec = &next
	plan.observed = keys
	ksp.Add("files", int64(len(files)))
	ksp.Add("keys_recomputed", int64(hashed))
	ksp.End()

	p.mu.Lock()
	p.global = rec
	p.mu.Unlock()
	res.CallGraph, res.Inferred = rec.stats, rec.inferred
	plan.inferred, plan.inferredOnly = rec.kinds, rec.inferredOnly
	plan.defs = &runDefs{graph: rec.graph, arts: arts}
	return nil
}

// summarize takes the call-graph summary of every unit whose record lacks
// one, installing it copy-on-write, and returns how many it took.
func (p *Project) summarize(files []*FileUnit, workers int) int {
	var todo []*FileUnit
	var arts []*artifacts
	p.mu.Lock()
	for _, fu := range files {
		if fu.art.summary == nil {
			todo = append(todo, fu)
			arts = append(arts, fu.art)
		}
	}
	p.mu.Unlock()
	sums := make([]*callgraph.Summary, len(todo))
	par.For(len(todo), workers, func(i int) {
		sums[i] = callgraph.Summarize(todo[i].Name, arts[i].ast)
	})
	p.mu.Lock()
	for i, fu := range todo {
		next := *arts[i]
		next.summary = sums[i]
		fu.art = &next
	}
	p.mu.Unlock()
	return len(todo)
}

// runDefs resolves call names to this run's definitions: the record's
// graph names the defining file and ordinal, and the file's current record
// supplies the definition and its symbol table, so a reused graph never
// hands out a node of a replaced or released tree.
type runDefs struct {
	graph *callgraph.Graph
	// arts are the files' records in link order. files holds, by link
	// position, the definitions of the files a resolve reached.
	arts  []*artifacts
	mu    sync.Mutex
	files map[int]*defFile
}

// file returns the definitions of the file at link position i.
func (d *runDefs) file(i int) *defFile {
	d.mu.Lock()
	defer d.mu.Unlock()
	df := d.files[i]
	if df == nil {
		if d.files == nil {
			d.files = map[int]*defFile{}
		}
		df = &defFile{art: d.arts[i]}
		d.files[i] = df
	}
	return df
}

// defFile is one file's record, and its definitions and resolver, built
// on first use.
type defFile struct {
	art     *artifacts
	once    sync.Once
	funcs   []*cast.FuncDecl
	resolve cfg.Resolver
}

// resolver returns the cfg.Resolver with file's visibility.
func (d *runDefs) resolver(file string) cfg.Resolver {
	return func(name string) cfg.Def {
		n := d.graph.Resolve(file, name)
		if n == nil {
			return cfg.Def{}
		}
		df := d.file(n.FileIndex())
		df.once.Do(func() {
			df.funcs = df.art.ast.Functions()
			df.resolve = d.resolver(n.File)
		})
		return cfg.Def{Fn: df.funcs[n.Ord], Table: df.art.table, Resolve: df.resolve}
	}
}
