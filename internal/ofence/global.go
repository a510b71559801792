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
	"ofence/internal/ctypes"
	"ofence/internal/memmodel"
	"ofence/internal/obs"
	"ofence/internal/par"
	"ofence/internal/semprop"
)

// globalRecord is one run's linked call graph and inference. It is never
// mutated after publication, so a project and its clones share it.
type globalRecord struct {
	// stamp is every file's (name, summary hash) in project order, then
	// the options the inference reads.
	stamp    []string
	graph    *callgraph.Graph
	stats    callgraph.Stats
	kinds    map[string]memmodel.BarrierKind
	inferred []semprop.InferredFn
	// inferredOnly is semprop.InferredOnly(inferred), which ranking reads.
	inferredOnly map[string]bool
	sccs         int
	levels       int
	// obs are the extract-key observations at one pair of depth budgets;
	// a run at other budgets derives a record with its own.
	obs *callgraph.Observations
}

// globalPhases summarizes the files that lack a summary, then links and
// infers — or reuses the project's record when no summary changed — and
// fills the interprocedural half of plan: the inferred kinds, the
// cross-file resolver and every file's observed-input key. It runs under
// the "callgraph", "semprop" and "extract_keys" spans.
func (p *Project) globalPhases(ctx context.Context, files []*FileUnit, opts Options, workers int, res *Result, plan *extractPlan) {
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
	stamp := make([]string, 0, 2*len(files)+len(opts.Access.ExtraBarrierSemantics))
	for i, art := range arts {
		sums[i] = art.summary
		stamp = append(stamp, files[i].Name, art.summary.Hash)
	}
	stamp = append(stamp, opts.Access.ExtraBarrierSemantics...)

	rec, cutoff := prev, int64(1)
	if prev == nil || !slices.Equal(prev.stamp, stamp) {
		cutoff = 0
		rec = &globalRecord{stamp: stamp}
		rec.graph = callgraph.Link(sums, workers)
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
		inf := semprop.Infer(rec.graph, semprop.Options{ExtraFull: opts.Access.ExtraBarrierSemantics, Workers: workers})
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

	_, ksp := obs.Start(ctx, "extract_keys")
	inline, depth := opts.Access.InlineDepth, opts.InterprocDepth
	if rec.obs == nil || rec.obs.Inline != inline || rec.obs.Depth != depth {
		next := *rec
		next.obs = rec.graph.Observe(rec.kinds, inline, depth)
		rec = &next
	}
	plan.observed = make(map[string]string, len(files))
	for i, fu := range files {
		plan.observed[fu.Name] = rec.obs.Key(i, sums)
	}
	ksp.Add("files", int64(len(files)))
	ksp.End()

	p.mu.Lock()
	p.global = rec
	p.mu.Unlock()
	res.CallGraph, res.Inferred = rec.stats, rec.inferred
	plan.inferred, plan.inferredOnly = rec.kinds, rec.inferredOnly
	plan.defs = &runDefs{p: p, graph: rec.graph, arts: arts}
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
// graph names the defining file and ordinal, and the file's current AST
// and symbol table supply the definition, so a reused graph never hands
// out a node of a replaced or released tree.
type runDefs struct {
	p     *Project
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

// defFile is one file's definitions, table and resolver, built on first
// use.
type defFile struct {
	art     *artifacts
	once    sync.Once
	funcs   []*cast.FuncDecl
	table   *ctypes.Table
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
			df.table = d.p.tableFor(n.File, df.art)
			df.resolve = d.resolver(n.File)
		})
		return cfg.Def{Fn: df.funcs[n.Ord], Table: df.table, Resolve: df.resolve}
	}
}
