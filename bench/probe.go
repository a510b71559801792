package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"ofence/internal/access"
	"ofence/internal/callgraph"
	"ofence/internal/cparser"
	"ofence/internal/cpp"
	"ofence/internal/ctoken"
	"ofence/internal/ctypes"
	"ofence/internal/ofence"
	"ofence/internal/rank"
	"ofence/internal/semprop"
)

// probeInput is the state a probe replays layers over: a verdict's project
// and result, and the files whose front end that verdict ran.
type probeInput struct {
	proj    *ofence.Project
	res     *ofence.Result
	opts    ofence.Options
	include map[string]string
	defines map[string]string
	files   []ofence.SourceFile
}

// probe is one measurement of single layers. The analyzer's own run does
// not make these calls; a traced run makes them outside its timed windows.
type probe struct {
	// Front end, replayed file by file; durations are busy time summed
	// over files, frontWall is the replay's wall time on opts.Workers.
	cpp, cparser, ctypes, access time.Duration
	frontWall                    time.Duration
	tokens, arenaBytes, sites    int64

	// Global phases over the verdict's sites and ASTs.
	tail, pair, rankIndex, callgraph, semprop time.Duration
	indexProbes, edges, sccs                  int64
	// other is the part of the tail no other probe accounts for: check,
	// dedup, closure hashing, scoring and bookkeeping.
	other time.Duration
}

// runProbe measures every layer once over in, recording one span per call
// under a "probe" span of operation op.
func runProbe(ctx context.Context, rec *recorder, op int64, in probeInput) (probe, error) {
	var p probe
	root := rec.open("probe", -1, op)
	start := time.Now()
	replayFrontEnd(ctx, rec, root, op, in, &p)

	workers := in.opts.Workers
	t := time.Now()
	if _, err := in.proj.AnalyzeParallel(ctx, in.opts); err != nil {
		return p, fmt.Errorf("no-op analysis: %w", err)
	}
	p.tail = rec.since("ofence.tail", root, op, t)

	t = time.Now()
	_, _, _, stats := ofence.PairSites(ctx, in.res.Sites, in.opts)
	p.pair = rec.since("ofence.pair", root, op, t)
	p.indexProbes = stats.IndexProbes

	t = time.Now()
	rank.BuildIndexParallel(in.res.Sites, workers)
	p.rankIndex = rec.since("rank.index", root, op, t)

	var files []callgraph.File
	for _, fu := range in.proj.Files() {
		files = append(files, callgraph.File{Name: fu.Name, AST: fu.AST})
	}
	t = time.Now()
	g := callgraph.BuildParallel(files, workers)
	p.callgraph = rec.since("callgraph", root, op, t)
	p.edges = int64(g.Stats().Edges)

	t = time.Now()
	inf := semprop.Infer(g, semprop.Options{ExtraFull: in.opts.Access.ExtraBarrierSemantics, Workers: workers})
	p.semprop = rec.since("semprop", root, op, t)
	p.sccs = int64(inf.Components)

	// Call-graph and semantics inference run inside the tail only at
	// interprocedural depth.
	p.other = p.tail - p.pair - p.rankIndex
	if in.opts.InterprocDepth > 0 {
		p.other -= p.callgraph + p.semprop
	}

	rec.finish(root, start, time.Now())
	return p, nil
}

// replayFrontEnd runs cpp, cparser, ctypes and access over in.files on
// in.opts.Workers goroutines, as the analyzer's depth-0 pipeline does, and
// adds each layer's busy time and counts to p.
func replayFrontEnd(ctx context.Context, rec *recorder, parent int, op int64, in probeInput, p *probe) {
	fe := rec.open("frontend", parent, op)
	start := time.Now()
	syms := ctoken.NewSymTab()
	copts := cpp.Options{Include: in.include, Defines: in.defines, Syms: syms}
	aopts := in.opts.Access
	aopts.Syms = syms

	var mu sync.Mutex
	one := func(f ofence.SourceFile) {
		t0 := time.Now()
		pre := cpp.PreprocessCtx(ctx, f.Name, f.Src, copts)
		t1 := time.Now()
		psr := cparser.New(pre.Tokens)
		ast := psr.ParseFile(f.Name)
		t2 := time.Now()
		table := ctypes.NewTable(ast)
		t3 := time.Now()
		sites := access.NewExtractor(f.Name, table, aopts).ExtractFileCtx(ctx, ast)
		t4 := time.Now()
		rec.record("cpp", fe, op, t0, t1)
		rec.record("cparser", fe, op, t1, t2)
		rec.record("ctypes", fe, op, t2, t3)
		rec.record("access", fe, op, t3, t4)

		mu.Lock()
		defer mu.Unlock()
		p.cpp += t1.Sub(t0)
		p.cparser += t2.Sub(t1)
		p.ctypes += t3.Sub(t2)
		p.access += t4.Sub(t3)
		p.tokens += int64(len(pre.Tokens))
		p.arenaBytes += psr.ArenaBytes()
		p.sites += int64(len(sites))
	}

	jobs := make(chan ofence.SourceFile)
	var wg sync.WaitGroup
	for range in.opts.Workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for f := range jobs {
				one(f)
			}
		}()
	}
	for _, f := range in.files {
		jobs <- f
	}
	close(jobs)
	wg.Wait()
	end := time.Now()
	p.frontWall = end.Sub(start)
	rec.finish(fe, start, end)
}
