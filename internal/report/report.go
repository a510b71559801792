// Package report is the evaluation harness: it runs OFence over the
// synthetic corpus and the paper fixtures and regenerates every table and
// figure of the paper's evaluation section (see DESIGN.md's per-experiment
// index), comparing measured results against ground truth.
package report

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"ofence/internal/access"
	"ofence/internal/callgraph"
	"ofence/internal/cast"
	"ofence/internal/corpus"
	"ofence/internal/cparser"
	"ofence/internal/cpp"
	"ofence/internal/kernelhdr"
	"ofence/internal/litmus"
	"ofence/internal/lockset"
	"ofence/internal/memmodel"
	"ofence/internal/ofence"
	"ofence/internal/par"
	"ofence/internal/semprop"
	"ofence/internal/validate"
)

// Evaluation bundles a corpus run.
type Evaluation struct {
	Corpus  *corpus.Corpus
	Opts    ofence.Options
	Project *ofence.Project
	Result  *ofence.Result
	Elapsed time.Duration
}

// RunCorpus analyzes the corpus and times the full run, front end included.
// Files are recorded in corpus order (AddSources) and parsed in parallel by
// the analysis, so every downstream table is deterministic.
func RunCorpus(c *corpus.Corpus, opts ofence.Options) *Evaluation {
	p := ofence.NewProject()
	kernelhdr.Register(p)
	start := time.Now()
	p.AddSources(c.Sources())
	res, err := p.AnalyzeParallel(context.Background(), opts)
	if err != nil {
		// Unreachable with a background context; keep the evaluation total.
		panic(err)
	}
	return &Evaluation{Corpus: c, Opts: opts, Project: p, Result: res, Elapsed: time.Since(start)}
}

// findingName maps FindingKind to the ground-truth vocabulary.
func findingName(k ofence.FindingKind) string {
	switch k {
	case ofence.MisplacedAccess:
		return "misplaced"
	case ofence.RepeatedRead:
		return "repeated-read"
	case ofence.WrongBarrierType:
		return "wrong-type"
	case ofence.UnneededBarrier:
		return "unneeded"
	case ofence.MissingOnce:
		return "missing-once"
	}
	return "?"
}

// ---------------------------------------------------------------------------
// Table 1 and Table 2 (catalogs)

// Table1 renders the paper's Table 1: the explicit barrier primitives.
func Table1() string {
	var b strings.Builder
	b.WriteString("Table 1. Barriers used by Linux\n")
	fmt.Fprintf(&b, "%-28s %s\n", "Primitive", "Description")
	for _, p := range memmodel.Primitives {
		fmt.Fprintf(&b, "%-28s %s\n", p.Name+"()", p.Description)
	}
	return b.String()
}

// Table2 renders the paper's Table 2: functions with barrier semantics.
func Table2() string {
	var b strings.Builder
	b.WriteString("Table 2. Examples of functions with or without barrier semantics\n")
	fmt.Fprintf(&b, "%-28s %-8s %-8s %s\n", "Primitive", "Compiler", "Memory", "Description")
	for _, f := range memmodel.Functions {
		fmt.Fprintf(&b, "%-28s %-8v %-8v %s\n", f.Name+"()", f.CompilerBarrier, f.MemoryBarrier, f.Description)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Inferred implicit-barrier functions vs Table 2

// InferredStats summarizes the interprocedural fixpoint (internal/semprop)
// over the evaluated corpus plus the Table 2 model bodies: how many
// functions were inferred to carry implicit barrier semantics, and how the
// inference overlaps the hand-written Table 2 catalog — full overlap is the
// sanity check that the fixpoint re-derives the table instead of merely
// reading it back.
type InferredStats struct {
	Functions int  `json:"functions"` // call-graph nodes
	Inferred  int  `json:"inferred"`  // functions inferred with barrier semantics
	Known     int  `json:"known"`     // of those, already in the built-in catalog
	New       int  `json:"new"`       // inferred beyond the catalog
	Catalog   int  `json:"catalog"`   // Table 2 entries with memory-barrier semantics
	Rederived int  `json:"rederived"` // catalog entries re-derived from their modeled bodies
	Rounds    int  `json:"rounds"`
	Converged bool `json:"converged"`
}

// Inferred runs the call-graph + fixpoint inference over the evaluation's
// files together with the Table 2 model unit and compares the result against
// the catalog. It returns the stats and the full sorted inferred set.
func Inferred(ev *Evaluation) (InferredStats, []semprop.InferredFn) {
	files := ev.Project.Files()
	cgf := make([]callgraph.File, 0, len(files)+1)
	for _, fu := range files {
		cgf = append(cgf, callgraph.File{Name: fu.Name, AST: fu.AST})
	}
	// Include the Table 2 model bodies so the catalog entries are derived
	// from (modeled) implementations, not read back out of memmodel.
	model, _ := cparser.ParseSource(semprop.Table2ModelFile, semprop.Table2ModelSource(),
		cpp.Options{Include: kernelhdr.Headers()})
	cgf = append(cgf, callgraph.File{Name: semprop.Table2ModelFile, AST: model})

	g := callgraph.BuildParallel(cgf, 0)
	inf := semprop.Infer(g, semprop.Options{ExtraFull: ev.Opts.Access.ExtraBarrierSemantics})
	fns := inf.Functions()

	st := InferredStats{Functions: len(g.Nodes), Rounds: inf.Rounds, Converged: inf.Converged}
	kinds := inf.NameKinds()
	for _, f := range fns {
		st.Inferred++
		if f.Known {
			st.Known++
		} else {
			st.New++
		}
	}
	for _, s := range memmodel.Functions {
		if !s.MemoryBarrier {
			continue
		}
		st.Catalog++
		if kinds[s.Name] == memmodel.FullBarrier {
			st.Rederived++
		}
	}
	return st, fns
}

// RenderInferred renders the inference summary and the non-catalog tail of
// the inferred set (the functions Table 2 does not know about).
func RenderInferred(st InferredStats, fns []semprop.InferredFn) string {
	var b strings.Builder
	b.WriteString("Inferred implicit-barrier functions (interprocedural fixpoint vs Table 2)\n")
	fmt.Fprintf(&b, "call-graph functions:       %d\n", st.Functions)
	fmt.Fprintf(&b, "inferred barrier functions: %d (%d in Table 2, %d new)\n", st.Inferred, st.Known, st.New)
	fmt.Fprintf(&b, "Table 2 re-derived:         %d / %d\n", st.Rederived, st.Catalog)
	fmt.Fprintf(&b, "fixpoint:                   %d rounds, converged=%t\n", st.Rounds, st.Converged)
	shown := 0
	for _, f := range fns {
		if f.Known {
			continue
		}
		if shown == 0 {
			b.WriteString("beyond the catalog:\n")
		}
		if shown == 20 {
			b.WriteString("  ...\n")
			break
		}
		shown++
		fmt.Fprintf(&b, "  %-28s %-8s %s\n", f.Name+"()", f.Kind, f.File)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Table 3 (bug breakdown)

// Table3Row is one line of the bug-breakdown table.
type Table3Row struct {
	Description string
	Expected    int // injected in the corpus / fixtures
	Found       int // reported by the analysis, matching ground truth
	Extra       int // reported without a matching truth (false positives)
}

// Table3 computes the bug breakdown against ground truth.
func Table3(ev *Evaluation) []Table3Row {
	kinds := []struct {
		key  string
		desc string
	}{
		{"misplaced", "Misplaced memory access"},
		{"repeated-read", "Racy variable re-read"},
		{"wrong-type", "Read barrier used instead of a write barrier"},
		{"unneeded", "Unneeded barrier"},
	}
	truthByFn := truthIndex(ev.Corpus)
	rows := make([]Table3Row, len(kinds))
	for i, k := range kinds {
		rows[i].Description = k.desc
		for _, tr := range ev.Corpus.Truths {
			if tr.ExpectFinding == k.key {
				rows[i].Expected++
			}
		}
		seen := map[*corpus.Truth]bool{}
		for _, f := range ev.Result.Findings {
			if findingName(f.Kind) != k.key {
				continue
			}
			tr := truthByFn[f.Site.Fn.Name]
			if tr != nil && tr.ExpectFinding == k.key && !seen[tr] {
				seen[tr] = true
				rows[i].Found++
			} else if tr == nil || tr.ExpectFinding != k.key {
				rows[i].Extra++
			}
		}
	}
	return rows
}

// RenderTable3 renders the rows like the paper's Table 3.
func RenderTable3(rows []Table3Row) string {
	var b strings.Builder
	b.WriteString("Table 3. Breakdown of the bugs and suboptimal patterns found\n")
	fmt.Fprintf(&b, "%-48s %-9s %-6s %s\n", "Description", "Injected", "Found", "Extra")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-48s %-9d %-6d %d\n", r.Description, r.Expected, r.Found, r.Extra)
	}
	return b.String()
}

func truthIndex(c *corpus.Corpus) map[string]*corpus.Truth {
	m := map[string]*corpus.Truth{}
	for _, tr := range c.Truths {
		if tr.WriterFn != "" {
			m[tr.WriterFn] = tr
		}
		if tr.ReaderFn != "" {
			m[tr.ReaderFn] = tr
		}
		for _, fn := range tr.OtherFns {
			m[fn] = tr
		}
	}
	return m
}

// ---------------------------------------------------------------------------
// Figure 6 (pairings vs write window)

// Fig6Point is one sweep point.
type Fig6Point struct {
	Window   int
	Pairings int
	// Incorrect is the number of pairings mixing unrelated patterns at
	// this window — the paper notes that exploring more statements
	// "results in a slightly higher number of incorrect pairings".
	Incorrect int
}

// Figure6 sweeps the write-barrier exploration window and counts pairings,
// reproducing the saturation-at-5 shape of the paper's Figure 6. The sweep
// points run concurrently (each on its own Project); out[i] always belongs
// to windows[i].
func Figure6(c *corpus.Corpus, windows []int, base ofence.Options) []Fig6Point {
	out := make([]Fig6Point, len(windows))
	par.For(len(windows), runtime.GOMAXPROCS(0), func(i int) {
		opts := base
		opts.Access.WriteWindow = windows[i]
		ev := RunCorpus(c, opts)
		st := Coverage(ev)
		out[i] = Fig6Point{
			Window:    windows[i],
			Pairings:  len(ev.Result.Pairings),
			Incorrect: st.IncorrectPairings,
		}
	})
	return out
}

// RenderFigure6 renders the sweep as an ASCII series.
func RenderFigure6(points []Fig6Point) string {
	var b strings.Builder
	b.WriteString("Figure 6. Pairings found vs. statements analyzed around write barriers\n")
	max := 1
	for _, p := range points {
		if p.Pairings > max {
			max = p.Pairings
		}
	}
	for _, p := range points {
		bar := strings.Repeat("#", p.Pairings*50/max)
		fmt.Fprintf(&b, "window=%-3d %4d (incorrect %d) %s\n", p.Window, p.Pairings, p.Incorrect, bar)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 7 (read distances)

// Fig7Bucket is one histogram bucket of read-barrier-to-object distances.
type Fig7Bucket struct {
	Lo, Hi int
	Count  int
}

// Figure7 histograms the distance between read barriers and the shared
// objects used by the pairings they participate in.
func Figure7(ev *Evaluation) []Fig7Bucket {
	edges := []int{1, 5, 10, 15, 20, 30, 40, 50}
	buckets := make([]Fig7Bucket, 0, len(edges))
	for i, lo := range edges {
		hi := 1 << 30
		if i+1 < len(edges) {
			hi = edges[i+1] - 1
		}
		buckets = append(buckets, Fig7Bucket{Lo: lo, Hi: hi})
	}
	for _, pg := range ev.Result.Pairings {
		for _, s := range pg.Sites {
			if !s.Kind.OrdersReads() && s.Kind != memmodel.ReadBarrier {
				continue
			}
			for _, a := range append(append([]*access.Access{}, s.Before...), s.After...) {
				if a.Kind != access.Load || !objectIn(pg.Common, a.Object) {
					continue
				}
				for bi := range buckets {
					if a.Distance >= buckets[bi].Lo && a.Distance <= buckets[bi].Hi {
						buckets[bi].Count++
						break
					}
				}
			}
		}
	}
	return buckets
}

func objectIn(list []access.Object, o access.Object) bool {
	for _, c := range list {
		if c == o {
			return true
		}
	}
	return false
}

// Figure7Findings returns the statement distances of the offending accesses
// of the ordering findings — the paper's companion observation to Figure 7:
// "bugs tend to happen on reads located further away from the barriers"
// (the Patch 3 re-read sits 26 statements out).
func Figure7Findings(ev *Evaluation) []int {
	var out []int
	for _, f := range ev.Result.Findings {
		if f.Kind == ofence.MissingOnce || f.Access == nil {
			continue
		}
		out = append(out, f.Access.Distance)
	}
	return out
}

// RenderFigure7 renders the histogram.
func RenderFigure7(buckets []Fig7Bucket) string {
	var b strings.Builder
	b.WriteString("Figure 7. Distance between read barriers and read shared objects\n")
	max := 1
	for _, bk := range buckets {
		if bk.Count > max {
			max = bk.Count
		}
	}
	for _, bk := range buckets {
		label := fmt.Sprintf("%d-%d", bk.Lo, bk.Hi)
		if bk.Hi >= 1<<29 {
			label = fmt.Sprintf("%d+", bk.Lo)
		}
		fmt.Fprintf(&b, "%-8s %5d %s\n", label, bk.Count, strings.Repeat("#", bk.Count*50/max))
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// §6.4 coverage / precision

// CoverageStats mirrors the §6.4 numbers.
type CoverageStats struct {
	Files             int
	BarrierSites      int
	Pairings          int
	PairedSites       int
	PairedFraction    float64
	ExpectedPairs     int // truths with ExpectPaired
	CorrectlyPaired   int // of those, actually paired (recall numerator)
	IncorrectPairings int // pairings mixing unrelated patterns or decoys
	ImplicitIPC       int
	Unpaired          int
}

// Coverage computes pairing coverage and correctness against ground truth.
func Coverage(ev *Evaluation) CoverageStats {
	st := CoverageStats{
		Files:        len(ev.Corpus.Order),
		BarrierSites: len(ev.Result.Sites),
		Pairings:     len(ev.Result.Pairings),
		ImplicitIPC:  len(ev.Result.ImplicitIPC),
		Unpaired:     len(ev.Result.Unpaired),
	}
	truthByFn := truthIndex(ev.Corpus)
	pairedTruths := map[*corpus.Truth]bool{}
	for _, pg := range ev.Result.Pairings {
		st.PairedSites += len(pg.Sites)
		// A pairing is correct when all member sites belong to one truth
		// that expects pairing.
		var owner *corpus.Truth
		mixed := false
		for _, s := range pg.Sites {
			tr := truthByFn[s.Fn.Name]
			if tr == nil {
				mixed = true
				break
			}
			if owner == nil {
				owner = tr
			} else if owner != tr {
				mixed = true
				break
			}
		}
		if mixed || owner == nil || !owner.ExpectPaired {
			st.IncorrectPairings++
			continue
		}
		pairedTruths[owner] = true
	}
	for _, tr := range ev.Corpus.Truths {
		if !tr.ExpectPaired {
			continue
		}
		// A pairing is only findable when the nearest ordered write lies
		// within the write-barrier exploration window (the Figure 6
		// trade-off); patterns beyond it are out of reach by design.
		if tr.WriteDistance > 0 && tr.WriteDistance > ev.Opts.Access.WriteWindow {
			continue
		}
		st.ExpectedPairs++
		if pairedTruths[tr] {
			st.CorrectlyPaired++
		}
	}
	if st.BarrierSites > 0 {
		st.PairedFraction = float64(st.PairedSites) / float64(st.BarrierSites)
	}
	return st
}

// RenderCoverage renders the stats.
func RenderCoverage(st CoverageStats) string {
	var b strings.Builder
	b.WriteString("Coverage and pairing correctness (cf. §6.4)\n")
	fmt.Fprintf(&b, "files analyzed:            %d\n", st.Files)
	fmt.Fprintf(&b, "barrier sites:             %d\n", st.BarrierSites)
	fmt.Fprintf(&b, "pairings:                  %d\n", st.Pairings)
	fmt.Fprintf(&b, "barriers paired:           %d (%.0f%%)\n", st.PairedSites, st.PairedFraction*100)
	fmt.Fprintf(&b, "expected pairs found:      %d / %d\n", st.CorrectlyPaired, st.ExpectedPairs)
	fmt.Fprintf(&b, "incorrect pairings:        %d\n", st.IncorrectPairings)
	fmt.Fprintf(&b, "implicit IPC writers:      %d\n", st.ImplicitIPC)
	fmt.Fprintf(&b, "unpaired barriers:         %d\n", st.Unpaired)
	return b.String()
}

// ---------------------------------------------------------------------------
// Figures 1-3 (litmus validation)

// Figure23Row is one litmus scenario.
type Figure23Row struct {
	Scenario   string
	BadState   bool // observable?
	ShouldBeOK bool // per the paper, must the pattern forbid the bad state?
}

// Figure23 runs the litmus scenarios of Figures 2 and 3.
func Figure23() []Figure23Row {
	rows := []Figure23Row{}
	add := func(name string, p *litmus.Program, bad func(litmus.Outcome) bool, shouldForbid bool) {
		res := litmus.Run(p, litmus.Weak)
		rows = append(rows, Figure23Row{
			Scenario:   name,
			BadState:   res.Has(bad),
			ShouldBeOK: shouldForbid,
		})
	}
	add("Figure 2: wmb + rmb (correct)", litmus.MessagePassing(true, true), litmus.BadMP, true)
	add("missing write barrier", litmus.MessagePassing(false, true), litmus.BadMP, false)
	add("missing read barrier", litmus.MessagePassing(true, false), litmus.BadMP, false)
	add("Figure 3: inconsistent placement", litmus.Figure3(), func(o litmus.Outcome) bool {
		return o["r_a"] == 0 && o["r_b"] == 1
	}, false)
	add("Figure 5: seqcount protocol", litmus.SeqcountRead(), litmus.BadSeqcount, true)
	return rows
}

// RenderFigure23 renders the litmus table.
func RenderFigure23(rows []Figure23Row) string {
	var b strings.Builder
	b.WriteString("Figures 2/3/5. Observable states under the weak memory model\n")
	fmt.Fprintf(&b, "%-36s %-18s %s\n", "Scenario", "Bad state seen?", "Verdict")
	for _, r := range rows {
		verdict := "as expected"
		if r.BadState == r.ShouldBeOK {
			verdict = "UNEXPECTED"
		}
		fmt.Fprintf(&b, "%-36s %-18v %s\n", r.Scenario, r.BadState, verdict)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// §6.1 runtime

// RuntimeStats reports full-run and incremental timings.
type RuntimeStats struct {
	Files       int
	FullRun     time.Duration
	SingleFile  time.Duration
	PerFileMean time.Duration
}

// Runtime measures a full corpus analysis and a single-file re-analysis.
func Runtime(c *corpus.Corpus, opts ofence.Options) RuntimeStats {
	ev := RunCorpus(c, opts)
	st := RuntimeStats{Files: len(c.Order), FullRun: ev.Elapsed}
	if len(c.Order) > 0 {
		st.PerFileMean = ev.Elapsed / time.Duration(len(c.Order))
		name := c.Order[0]
		single := &corpus.Corpus{
			Files: map[string]string{name: c.Files[name]},
			Order: []string{name},
		}
		ev1 := RunCorpus(single, opts)
		st.SingleFile = ev1.Elapsed
	}
	return st
}

// RenderRuntime renders the timings.
func RenderRuntime(st RuntimeStats) string {
	var b strings.Builder
	b.WriteString("Runtime (cf. §6.1: 8 min full kernel, <30 s incremental)\n")
	fmt.Fprintf(&b, "files:                 %d\n", st.Files)
	fmt.Fprintf(&b, "full analysis:         %v\n", st.FullRun)
	fmt.Fprintf(&b, "mean per file:         %v\n", st.PerFileMean)
	fmt.Fprintf(&b, "single-file reanalysis: %v\n", st.SingleFile)
	return b.String()
}

// ---------------------------------------------------------------------------
// Fixture verification (the 12 paper bugs)

// FixtureResult is the outcome of analyzing one paper fixture.
type FixtureResult struct {
	Fixture  corpus.Fixture
	Pairings int
	Findings []string // finding names on the buggy source
	Match    bool     // expected finding present (or absent when "")
}

// RunFixtures analyzes every paper fixture, fanning the independent
// fixtures out over a GOMAXPROCS-sized pool; out[i] always belongs to
// Fixtures()[i], so the rendered table is deterministic.
func RunFixtures(opts ofence.Options) []FixtureResult {
	fixtures := corpus.Fixtures()
	out := make([]FixtureResult, len(fixtures))
	par.For(len(fixtures), runtime.GOMAXPROCS(0), func(i int) {
		fx := fixtures[i]
		p := ofence.NewProject()
		p.AddSource(fx.Name, fx.Source)
		res, err := p.AnalyzeParallel(context.Background(), opts)
		if err != nil {
			// Unreachable with a background context; keep the table total.
			panic(err)
		}
		fr := FixtureResult{Fixture: fx, Pairings: len(res.Pairings)}
		names := map[string]bool{}
		for _, f := range res.Findings {
			n := findingName(f.Kind)
			if n == "missing-once" {
				continue
			}
			if !names[n] {
				names[n] = true
				fr.Findings = append(fr.Findings, n)
			}
		}
		sort.Strings(fr.Findings)
		if fx.ExpectFinding == "" {
			fr.Match = len(fr.Findings) == 0 || fx.FalsePositive
		} else {
			fr.Match = names[fx.ExpectFinding]
		}
		out[i] = fr
	})
	return out
}

// RenderFixtures renders the fixture table.
func RenderFixtures(rows []FixtureResult) string {
	var b strings.Builder
	b.WriteString("Paper patch fixtures (§6.2)\n")
	fmt.Fprintf(&b, "%-20s %-9s %-16s %-24s %s\n", "Fixture", "Pairings", "Expected", "Found", "Match")
	for _, r := range rows {
		exp := r.Fixture.ExpectFinding
		if exp == "" {
			exp = "(clean)"
		}
		found := strings.Join(r.Findings, ",")
		if found == "" {
			found = "(none)"
		}
		fmt.Fprintf(&b, "%-20s %-9d %-16s %-24s %v\n", r.Fixture.Name, r.Pairings, exp, found, r.Match)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Baseline comparison (the "no existing tool" claim, cf. §8)

// BaselineStats compares the lockset baseline against OFence on the same
// corpus.
type BaselineStats struct {
	// Lockset side.
	Warnings            int
	BenignCounters      int
	BenignAnnotated     int
	LockProtectedWarned int // must be 0: the baseline's home turf
	BuggyPatterns       int // injected barrier-ordering bugs
	BuggyWarned         int // of those, structs with a lockset warning
	CorrectPatterns     int // correct barrier patterns
	CorrectWarned       int // of those, structs with a lockset warning
	// OFence side.
	OFenceBugsFound    int // deviations matching injected bugs
	OFenceCorrectFlags int // deviations reported on correct patterns
}

// Baseline runs the lockset analysis on the evaluated corpus and measures
// whether it can distinguish the injected barrier bugs from correct barrier
// usage (it cannot: both get the identical empty-lockset verdict).
func Baseline(ev *Evaluation) BaselineStats {
	rep := lockset.Analyze(ev.Project.Files())
	st := BaselineStats{
		Warnings:        len(rep.Warnings),
		BenignCounters:  rep.BenignCounters,
		BenignAnnotated: rep.BenignAnnotated,
	}
	warnedStructs := map[string]bool{}
	for _, w := range rep.Warnings {
		warnedStructs[w.Object.Struct] = true
	}
	truthByFn := truthIndex(ev.Corpus)
	for _, tr := range ev.Corpus.Truths {
		switch {
		case tr.Kind == corpus.LockProtected:
			if warnedStructs[tr.StructTag] {
				st.LockProtectedWarned++
			}
		case tr.ExpectFinding != "" && tr.ExpectFinding != "unneeded":
			st.BuggyPatterns++
			if warnedStructs[tr.StructTag] {
				st.BuggyWarned++
			}
		case tr.Kind == corpus.InitFlag:
			st.CorrectPatterns++
			if warnedStructs[tr.StructTag] {
				st.CorrectWarned++
			}
		}
	}
	for _, f := range ev.Result.Findings {
		if f.Kind == ofence.MissingOnce {
			continue
		}
		tr := truthByFn[f.Site.Fn.Name]
		if tr != nil && tr.ExpectFinding == findingName(f.Kind) {
			st.OFenceBugsFound++
		} else if tr != nil && tr.ExpectFinding == "" {
			st.OFenceCorrectFlags++
		}
	}
	return st
}

// RenderBaseline renders the comparison.
func RenderBaseline(st BaselineStats) string {
	var b strings.Builder
	b.WriteString("Baseline comparison: lockset (Eraser/RacerX-style) vs OFence (cf. \u00a78)\n")
	fmt.Fprintf(&b, "lockset warnings:                      %d\n", st.Warnings)
	fmt.Fprintf(&b, "  benign filtered (stats counters):    %d\n", st.BenignCounters)
	fmt.Fprintf(&b, "  benign filtered (annotated):         %d\n", st.BenignAnnotated)
	fmt.Fprintf(&b, "  lock-protected false warnings:       %d\n", st.LockProtectedWarned)
	fmt.Fprintf(&b, "barrier bugs warned by lockset:        %d / %d (indistinguishable:\n", st.BuggyWarned, st.BuggyPatterns)
	fmt.Fprintf(&b, "  correct patterns warned identically: %d / %d)\n", st.CorrectWarned, st.CorrectPatterns)
	fmt.Fprintf(&b, "barrier bugs pinpointed by ofence:     %d (on correct patterns: %d)\n",
		st.OFenceBugsFound, st.OFenceCorrectFlags)
	return b.String()
}

// ---------------------------------------------------------------------------
// §1 census

// CensusStats mirrors the paper's introduction claim: "more than 2000
// functions contain memory barriers and over 6000 use kernel APIs that rely
// on barriers for correctness (e.g., RCU)".
type CensusStats struct {
	Functions        int // functions defined in the corpus
	WithBarriers     int // containing an explicit barrier primitive
	UsingBarrierAPIs int // calling a barrier-reliant API (RCU, seqcount, ...)
}

// Census counts barrier usage across the analyzed functions.
func Census(ev *Evaluation) CensusStats {
	st := CensusStats{}
	for _, fu := range ev.Project.Files() {
		for _, fn := range fu.AST.Functions() {
			st.Functions++
			hasBarrier, usesAPI := false, false
			for _, call := range cast.Calls(fn) {
				name := call.FunName()
				if memmodel.IsBarrier(name) {
					hasBarrier = true
				}
				if memmodel.IsBarrierDependentAPI(name) {
					usesAPI = true
				}
			}
			if hasBarrier {
				st.WithBarriers++
			}
			if usesAPI {
				st.UsingBarrierAPIs++
			}
		}
	}
	return st
}

// RenderCensus renders the stats.
func RenderCensus(st CensusStats) string {
	var b strings.Builder
	b.WriteString("Barrier census (cf. §1: >2000 functions with barriers, >6000 using barrier-reliant APIs)\n")
	fmt.Fprintf(&b, "functions analyzed:          %d\n", st.Functions)
	fmt.Fprintf(&b, "containing barriers:         %d\n", st.WithBarriers)
	fmt.Fprintf(&b, "using barrier-reliant APIs:  %d\n", st.UsingBarrierAPIs)
	return b.String()
}

// ---------------------------------------------------------------------------
// Litmus validation of findings

// ValidationStats summarizes litmus-checking every finding on the corpus.
type ValidationStats struct {
	Checked     int
	Confirmed   int
	Unconfirmed int
}

// Validation litmus-checks every checkable finding of the evaluation: the
// deviation must admit a bad state as written and the fix must eliminate it.
func Validation(ev *Evaluation) ValidationStats {
	verdicts := validate.CheckAll(ev.Result.Findings)
	st := ValidationStats{Checked: len(verdicts)}
	for _, v := range verdicts {
		if v.Confirmed {
			st.Confirmed++
		} else {
			st.Unconfirmed++
		}
	}
	return st
}

// RenderValidation renders the stats.
func RenderValidation(st ValidationStats) string {
	var b strings.Builder
	b.WriteString("Litmus validation of findings (every fix checked under the weak model)\n")
	fmt.Fprintf(&b, "findings checked:   %d\n", st.Checked)
	fmt.Fprintf(&b, "confirmed:          %d\n", st.Confirmed)
	fmt.Fprintf(&b, "unconfirmed:        %d\n", st.Unconfirmed)
	return b.String()
}

// Everything runs the complete evaluation and renders it as one report.
func Everything(seed int64) string {
	opts := ofence.DefaultOptions()
	c := corpus.Generate(corpus.DefaultConfig(seed))
	ev := RunCorpus(c, opts)

	var b strings.Builder
	b.WriteString(Table1())
	b.WriteString("\n")
	b.WriteString(Table2())
	b.WriteString("\n")
	b.WriteString(RenderFixtures(RunFixtures(opts)))
	b.WriteString("\n")
	b.WriteString(RenderTable3(Table3(ev)))
	b.WriteString("\n")
	b.WriteString(RenderFigure6(Figure6(c, []int{0, 1, 2, 3, 4, 5, 6, 8, 10}, opts)))
	b.WriteString("\n")
	b.WriteString(RenderFigure7(Figure7(ev)))
	b.WriteString("\n")
	b.WriteString(RenderCoverage(Coverage(ev)))
	b.WriteString("\n")
	b.WriteString(RenderFigure23(Figure23()))
	b.WriteString("\n")
	b.WriteString(RenderValidation(Validation(ev)))
	b.WriteString("\n")
	b.WriteString(RenderCensus(Census(ev)))
	b.WriteString("\n")
	ist, fns := Inferred(ev)
	b.WriteString(RenderInferred(ist, fns))
	b.WriteString("\n")
	b.WriteString(RenderRuntime(Runtime(c, opts)))
	return b.String()
}
