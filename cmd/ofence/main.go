// Command ofence analyzes a directory of C files for barrier-pairing
// concurrency bugs, mirroring the paper's tool: it reports the inferred
// pairings, the ordering deviations, and (with -patch) the generated fixes.
//
// Usage:
//
//	ofence [flags] <dir-or-file.c>...
//
// Flags:
//
//	-patch            print generated patches for each finding
//	-pairings         print the inferred pairings
//	-once             report missing READ_ONCE/WRITE_ONCE annotations (§7)
//	-interproc N      cross-file call-graph depth; infers implicit barrier
//	                  semantics and inlines helpers across files (default 0,
//	                  the paper's same-file analysis)
//	-sarif            emit the diagnostics engine's findings as SARIF 2.1.0
//	-stage-stats      print per-stage incremental cache and memory statistics
//	                  to stderr
//	-trace            print the per-stage observability tree to stderr
//	-trace-out FILE   write a Chrome trace_event JSON trace (Perfetto-loadable)
//	-exit-code        exit 1 when findings are reported (CI gating)
//	-min-confidence C drop findings the ranking pass scores below C
//	                  (default 0: keep all; see docs/RANKING.md)
//	-write-window N   statements explored around write barriers (default 5)
//	-read-window N    statements explored around read barriers (default 50)
//	-workers N        parallel file workers (default GOMAXPROCS)
//	-cpuprofile FILE  write a pprof CPU profile of the run
//	-memprofile FILE  write a pprof heap profile at exit
//
// See docs/CLI.md for the full flag reference and docs/OBSERVABILITY.md for
// the tracing guide.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"ofence/internal/diag"
	"ofence/internal/kernelhdr"
	"ofence/internal/obs"
	"ofence/internal/ofence"
	"ofence/internal/patch"
	"ofence/internal/validate"
)

func main() {
	var (
		showPatch    = flag.Bool("patch", false, "print generated patches")
		showPairings = flag.Bool("pairings", false, "print inferred pairings")
		explain      = flag.Bool("explain", false, "print the full pairing audit trail")
		checkOnce    = flag.Bool("once", false, "report missing READ_ONCE/WRITE_ONCE annotations")
		doValidate   = flag.Bool("validate", false, "litmus-check each finding under the weak memory model")
		jsonOut      = flag.Bool("json", false, "emit machine-readable JSON instead of text")
		sarifOut     = flag.Bool("sarif", false, "emit SARIF 2.1.0 diagnostics instead of text")
		interproc    = flag.Int("interproc", 0, "cross-file call-graph depth (0 = paper-faithful same-file analysis)")
		traceFlag    = flag.Bool("trace", false, "print the per-stage observability tree to stderr")
		traceOut     = flag.String("trace-out", "", "write a Chrome trace_event JSON file (open in chrome://tracing or Perfetto)")
		useExitCode  = flag.Bool("exit-code", false, "exit with status 1 when findings are reported (SARIF-tool convention for CI gates)")
		stageStats   = flag.Bool("stage-stats", false, "print per-stage incremental cache and memory statistics to stderr")
		writeWindow  = flag.Int("write-window", 5, "statements explored around write barriers")
		readWindow   = flag.Int("read-window", 50, "statements explored around read barriers")
		workers      = flag.Int("workers", 0, "parallel file workers (0 = GOMAXPROCS)")
		minConf      = flag.Float64("min-confidence", 0, "drop findings scored below this confidence by the ranking pass (0 = keep all; the tuned default threshold is rank.DefaultThreshold, see docs/RANKING.md)")
		cpuProfile   = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProfile   = flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: ofence [flags] <dir-or-file.c>...")
		flag.PrintDefaults()
		os.Exit(2)
	}

	// Profiles must be flushed on every exit path, so all later exits go
	// through exit() rather than os.Exit directly.
	stopProfiles := startProfiles(*cpuProfile, *memProfile)
	defer stopProfiles()
	exit := func(code int) {
		stopProfiles()
		os.Exit(code)
	}

	opts := ofence.DefaultOptions()
	opts.Access.WriteWindow = *writeWindow
	opts.Access.ReadWindow = *readWindow
	opts.Workers = *workers
	opts.CheckOnce = *checkOnce
	opts.InterprocDepth = *interproc
	opts.MinConfidence = *minConf

	var srcs, hdrs []ofence.SourceFile
	for _, arg := range flag.Args() {
		found, headers, err := addPath(arg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ofence: %v\n", err)
			exit(1)
		}
		srcs = append(srcs, found...)
		hdrs = append(hdrs, headers...)
	}
	if len(srcs) == 0 {
		fmt.Fprintln(os.Stderr, "ofence: no .c files found")
		exit(1)
	}

	// -stage-stats wants the per-stage heap deltas, so it too enables the
	// memstats-sampling tracer.
	ctx, tracer := traceContext(*traceFlag || *traceOut != "" || *stageStats)

	proj := ofence.NewProject()
	kernelhdr.Register(proj)
	for _, h := range hdrs {
		proj.AddHeader(h.Name, h.Src)
	}
	// A path named twice (or reached through a directory and by name) is
	// one file: the project keeps file names unique.
	proj.AddSources(srcs)
	files := len(proj.Files())
	res, err := proj.AnalyzeParallel(ctx, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ofence: %v\n", err)
		exit(1)
	}

	if *jsonOut {
		data, err := json.MarshalIndent(res.View(), "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "ofence: %v\n", err)
			exit(1)
		}
		os.Stdout.Write(append(data, '\n'))
		printStageStats(*stageStats, proj, res, tracer)
		finishTrace(tracer, *traceFlag, *traceOut)
		exit(exitStatus(*useExitCode, len(res.Findings)))
	}

	if *sarifOut {
		data, nDiags, err := sarifReport(ctx, res, proj, srcs, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ofence: %v\n", err)
			exit(1)
		}
		os.Stdout.Write(append(data, '\n'))
		printStageStats(*stageStats, proj, res, tracer)
		finishTrace(tracer, *traceFlag, *traceOut)
		exit(exitStatus(*useExitCode, nDiags))
	}

	fmt.Printf("ofence: %d files, %d barrier sites, %d pairings, %d unpaired, %d implicit-IPC\n",
		files, len(res.Sites), len(res.Pairings), len(res.Unpaired), len(res.ImplicitIPC))
	if *interproc > 0 {
		fmt.Printf("ofence: call graph %d functions, %d edges (%d via pointers, %d unresolved); %d inferred barrier functions\n",
			res.CallGraph.Functions, res.CallGraph.Edges, res.CallGraph.PtrEdges,
			res.CallGraph.Unresolved, len(res.Inferred))
	}
	fmt.Printf("ofence: extract %v, pair %v, check %v, rank %v\n",
		res.Timing.Extract.Round(time.Microsecond),
		res.Timing.Pair.Round(time.Microsecond),
		res.Timing.Check.Round(time.Microsecond),
		res.Timing.Rank.Round(time.Microsecond))

	if *explain {
		fmt.Print(ofence.ExplainResult(res))
	} else if *showPairings {
		for _, pg := range res.Pairings {
			fmt.Printf("  %s\n", pg)
			for _, o := range pg.Common {
				fmt.Printf("    shared %s\n", o)
			}
		}
	}

	if len(res.Findings) == 0 {
		fmt.Println("no deviations found")
		printStageStats(*stageStats, proj, res, tracer)
		finishTrace(tracer, *traceFlag, *traceOut)
		return
	}
	for _, f := range res.Findings {
		fmt.Printf("%s\n", f)
		if *doValidate {
			_, vsp := obs.Start(ctx, "validate")
			v, err := validate.Check(f)
			vsp.End()
			if err != nil {
				fmt.Printf("  (not litmus-checkable: %v)\n", err)
			} else {
				fmt.Printf("  litmus: %s\n", v)
			}
		}
		if *showPatch {
			_, psp := obs.Start(ctx, "patch")
			p, err := patch.Generate(f)
			psp.End()
			if err != nil {
				fmt.Printf("  (no mechanical patch: %v)\n", err)
				continue
			}
			fmt.Println(indent(p.String(), "  "))
		}
	}
	if n := len(res.ParseErrors); n > 0 {
		fmt.Fprintf(os.Stderr, "ofence: %d parse diagnostics (files analyzed best-effort)\n", n)
	}
	printStageStats(*stageStats, proj, res, tracer)
	finishTrace(tracer, *traceFlag, *traceOut)
	exit(exitStatus(*useExitCode, len(res.Findings)))
}

// startProfiles implements -cpuprofile/-memprofile: it starts the CPU
// profile immediately and returns an idempotent stop function that ends the
// CPU profile and writes the heap profile. The stop function runs both on
// the normal return path (deferred) and inside exit(), whichever comes
// first — os.Exit skips deferred calls, so every exit after profiling
// starts must go through exit().
func startProfiles(cpu, mem string) func() {
	var stopCPU func()
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ofence: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "ofence: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		stopCPU = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			if stopCPU != nil {
				stopCPU()
			}
			if mem != "" {
				f, err := os.Create(mem)
				if err != nil {
					fmt.Fprintf(os.Stderr, "ofence: -memprofile: %v\n", err)
					return
				}
				defer f.Close()
				runtime.GC() // flush unreached garbage so the profile shows live heap
				if err := pprof.WriteHeapProfile(f); err != nil {
					fmt.Fprintf(os.Stderr, "ofence: -memprofile: %v\n", err)
				}
			}
		})
	}
}

// printStageStats implements -stage-stats: the incremental file counters of
// this run, the per-stage content-addressed cache counters, and the
// per-phase memory report (heap-allocation deltas sampled at span
// boundaries, plus the front end's AST arena footprint), on stderr so they
// never pollute -json/-sarif output.
func printStageStats(enabled bool, proj *ofence.Project, res *ofence.Result, tracer *obs.Tracer) {
	if !enabled {
		return
	}
	inc := res.Incremental
	fmt.Fprintf(os.Stderr, "ofence: files %d (%d recomputed, %d reused)\n",
		inc.FilesTotal, inc.FilesRecomputed, inc.FilesReused)
	ps := res.PairStats
	fmt.Fprintf(os.Stderr, "ofence: pairing index_probes=%d pruned_bound=%d pruned=%d\n",
		ps.IndexProbes, ps.PrunedBound, ps.Pruned)
	stats := proj.StageStats()
	names := make([]string, 0, len(stats))
	for name := range stats {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st := stats[name]
		fmt.Fprintf(os.Stderr, "ofence: stage %-10s hits=%d misses=%d dedup=%d evictions=%d entries=%d\n",
			name, st.Hits, st.Misses, st.Dedups, st.Evictions, st.Entries)
	}
	printMemStats(tracer)
}

// printMemStats prints the -stage-stats memory report: for the analysis
// span and each phase under it (parse, callgraph, semprop, extract, pair,
// check, rank), the heap bytes and allocations the phase performed — the
// tracer samples the runtime/metrics heap counters at span boundaries —
// plus the AST arena footprint where a span recorded one. Same-name spans
// at one depth (the per-file parses) are aggregated into a single line
// with a count.
func printMemStats(tracer *obs.Tracer) {
	if tracer == nil {
		return
	}
	depth := func(sp *obs.Span) int {
		d := 0
		for p := sp.Parent(); p != nil; p = p.Parent() {
			d++
		}
		return d
	}
	type agg struct {
		label               string
		spans               int
		alloc, mallocs      uint64
		arenaBytes          int64
		hasArena, hasMemory bool
	}
	var order []string
	byKey := map[string]*agg{}
	for _, sp := range tracer.Spans() {
		d := depth(sp)
		if d > 1 {
			continue
		}
		key := fmt.Sprintf("%d/%s", d, sp.Name())
		a := byKey[key]
		if a == nil {
			a = &agg{label: strings.Repeat("  ", d) + sp.Name()}
			byKey[key] = a
			order = append(order, key)
		}
		a.spans++
		if alloc, mallocs, ok := sp.MemStats(); ok {
			a.alloc += alloc
			a.mallocs += mallocs
			a.hasMemory = true
		}
		for _, c := range sp.Counters() {
			if c.Name == "frontend.arena_bytes" {
				a.arenaBytes += c.Value
				a.hasArena = true
			}
		}
	}
	for _, key := range order {
		a := byKey[key]
		if !a.hasMemory {
			continue
		}
		line := fmt.Sprintf("ofence: mem %-12s alloc_bytes=%d mallocs=%d", a.label, a.alloc, a.mallocs)
		if a.spans > 1 {
			line += fmt.Sprintf(" spans=%d", a.spans)
		}
		if a.hasArena {
			line += fmt.Sprintf(" arena_bytes=%d", a.arenaBytes)
		}
		fmt.Fprintln(os.Stderr, line)
	}
}

// traceContext returns the analysis context, attaching a memstats-sampling
// tracer when tracing was requested; tracer is nil otherwise.
func traceContext(enabled bool) (context.Context, *obs.Tracer) {
	ctx := context.Background()
	if !enabled {
		return ctx, nil
	}
	tracer := obs.New(obs.WithMemStats())
	return obs.WithTracer(ctx, tracer), tracer
}

// finishTrace emits the requested trace exports: the stage tree on stderr
// (-trace) and/or a Chrome trace_event JSON file (-trace-out).
func finishTrace(tracer *obs.Tracer, tree bool, out string) {
	if tracer == nil {
		return
	}
	if tree {
		fmt.Fprint(os.Stderr, tracer.Tree())
	}
	if out != "" {
		data, err := tracer.ChromeTrace()
		if err != nil {
			fmt.Fprintf(os.Stderr, "ofence: trace export: %v\n", err)
			return
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "ofence: trace export: %v\n", err)
		}
	}
}

// exitStatus implements -exit-code: status 1 when findings were reported
// and gating was requested, 0 otherwise (the SARIF-tool convention CI
// consumers expect).
func exitStatus(gate bool, findings int) int {
	if gate && findings > 0 {
		return 1
	}
	return 0
}

// sarifReport runs the diagnostics engine over the analysis result and
// renders it as a SARIF 2.1.0 document, also returning the diagnostic
// count for -exit-code gating. Under a tracing context the engine run is
// recorded as a "diag" span.
func sarifReport(ctx context.Context, res *ofence.Result, proj *ofence.Project, srcs []ofence.SourceFile, opts ofence.Options) ([]byte, int, error) {
	sources := make(map[string]string, len(srcs))
	for _, sf := range srcs {
		sources[sf.Name] = sf.Src
	}
	_, sp := obs.Start(ctx, "diag")
	passes := diag.DefaultPasses()
	ds := diag.Run(&diag.Context{
		Result:  res,
		Files:   proj.Files(),
		Sources: sources,
		Opts:    opts,
	}, passes)
	sp.Add("diagnostics", int64(len(ds)))
	sp.End()
	data, err := diag.MarshalSARIF(ds, diag.Rules(passes))
	return data, len(ds), err
}

// addPath collects the .c sources under path in walk order, plus the .h
// headers found alongside them. Headers are named by their path relative to
// the walked root so a source's `#include "sub/dir/file.h"` resolves against
// a tree rooted at the argument directory (as the corpus generator's tree
// mode lays them out).
func addPath(path string) (srcs, hdrs []ofence.SourceFile, err error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, nil, err
	}
	if !info.IsDir() {
		fu, err := readSource(path)
		if err != nil {
			return nil, nil, err
		}
		return []ofence.SourceFile{fu}, nil, nil
	}
	err = filepath.WalkDir(path, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			return nil
		}
		switch {
		case strings.HasSuffix(p, ".c"):
			fu, err := readSource(p)
			if err != nil {
				return err
			}
			srcs = append(srcs, fu)
		case strings.HasSuffix(p, ".h"):
			fu, err := readSource(p)
			if err != nil {
				return err
			}
			if rel, rerr := filepath.Rel(path, p); rerr == nil {
				fu.Name = filepath.ToSlash(rel)
			}
			hdrs = append(hdrs, fu)
		}
		return nil
	})
	return srcs, hdrs, err
}

func readSource(path string) (ofence.SourceFile, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return ofence.SourceFile{}, err
	}
	return ofence.SourceFile{Name: filepath.Clean(path), Src: string(src)}, nil
}

func indent(s, pad string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = pad + l
	}
	return strings.Join(lines, "\n")
}
