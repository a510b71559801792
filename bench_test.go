// Package ofence_test holds the benchmark harness: one testing.B benchmark
// per table and figure of the paper's evaluation (see DESIGN.md §4 for the
// experiment index and EXPERIMENTS.md for paper-vs-measured results).
//
// Run with: go test -bench=. -benchmem
package ofence_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"ofence/internal/corpus"
	"ofence/internal/cparser"
	"ofence/internal/cpp"
	"ofence/internal/kernelhdr"
	"ofence/internal/litmus"
	"ofence/internal/memmodel"
	"ofence/internal/ofence"
	"ofence/internal/patch"
	"ofence/internal/report"
	"ofence/internal/sitegen"
)

func benchCorpus(scale float64, seed int64) *corpus.Corpus {
	cfg := corpus.DefaultConfig(seed)
	for k, v := range cfg.Counts {
		n := int(float64(v) * scale)
		if n < 1 {
			n = 1
		}
		cfg.Counts[k] = n
	}
	return corpus.Generate(cfg)
}

// BenchmarkTable1BarrierRecognition — Table 1: all eight explicit primitives
// must be found as barrier sites.
func BenchmarkTable1BarrierRecognition(b *testing.B) {
	src := `
struct t1 { int a; int b; long v; };
void all_barriers(struct t1 *p) {
	p->a = 1;
	smp_rmb();
	p->b = 2;
	smp_wmb();
	p->a = 3;
	smp_mb();
	smp_store_mb(&p->v, 1);
	p->b = 4;
	smp_store_release(&p->v, 2);
	p->a = smp_load_acquire(&p->v);
	smp_mb__before_atomic();
	atomic_inc(&p->b);
	smp_mb__after_atomic();
}`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		proj := ofence.NewProject()
		proj.AddSource("t1.c", src)
		res := mustAnalyze(b, proj, ofence.DefaultOptions())
		if len(res.Sites) != 8 {
			b.Fatalf("sites = %d, want 8", len(res.Sites))
		}
	}
}

// BenchmarkTable2SemanticsLookup — Table 2: catalog lookups, the hot inner
// operation of exploration.
func BenchmarkTable2SemanticsLookup(b *testing.B) {
	names := []string{
		"atomic_inc", "atomic_inc_and_test", "set_bit", "test_and_set_bit",
		"wake_up_process", "atomic64_fetch_add", "printk", "smp_mb",
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, n := range names {
			_ = memmodel.HasBarrierSemantics(n)
			_ = memmodel.IsWakeUp(n)
		}
	}
}

// BenchmarkTable3BugDetection — Table 3: detect the injected deviations
// (misplaced / re-read / wrong-type / unneeded) on a corpus with the paper's
// bug mix, verifying the breakdown matches ground truth.
func BenchmarkTable3BugDetection(b *testing.B) {
	c := benchCorpus(0.25, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := report.RunCorpus(c, ofence.DefaultOptions())
		rows := report.Table3(ev)
		for _, r := range rows {
			if r.Found != r.Expected {
				b.Fatalf("%s: found %d of %d", r.Description, r.Found, r.Expected)
			}
		}
	}
}

// BenchmarkFigure2MessagePassingLitmus — Figures 1/2: exhaustive state
// enumeration of the correct message-passing pattern.
func BenchmarkFigure2MessagePassingLitmus(b *testing.B) {
	p := litmus.MessagePassing(true, true)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := litmus.Run(p, litmus.Weak)
		if res.Has(litmus.BadMP) {
			b.Fatal("bad state observable")
		}
	}
}

// BenchmarkFigure3InconsistentLitmus — Figure 3: the inconsistent placement
// admits every outcome.
func BenchmarkFigure3InconsistentLitmus(b *testing.B) {
	p := litmus.Figure3()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := litmus.Run(p, litmus.Weak)
		if len(res.Outcomes) < 4 {
			b.Fatalf("outcomes = %d", len(res.Outcomes))
		}
	}
}

// BenchmarkFigure4PairingListing1 — Figure 4: the shared-object pairing on
// the Listing 1 pattern.
func BenchmarkFigure4PairingListing1(b *testing.B) {
	src := `
struct my_struct { int init; int y; };
void reader(struct my_struct *a) {
	if (!a->init)
		return;
	smp_rmb();
	f(a->y);
}
void writer(struct my_struct *p) {
	p->y = 1;
	smp_wmb();
	p->init = 1;
}`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		proj := ofence.NewProject()
		proj.AddSource("l1.c", src)
		res := mustAnalyze(b, proj, ofence.DefaultOptions())
		if len(res.Pairings) != 1 {
			b.Fatalf("pairings = %d", len(res.Pairings))
		}
	}
}

// BenchmarkFigure5SeqcountQuad — Figure 5 / Listing 3: the four-barrier
// seqcount pairing with per-duo checking.
func BenchmarkFigure5SeqcountQuad(b *testing.B) {
	var fx corpus.Fixture
	for _, f := range corpus.Fixtures() {
		if f.Name == "arp_tables.c" {
			fx = f
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		proj := ofence.NewProject()
		proj.AddSource(fx.Name, fx.Source)
		res := mustAnalyze(b, proj, ofence.DefaultOptions())
		if len(res.Pairings) != 1 || len(res.Pairings[0].Sites) != 4 {
			b.Fatal("quad pairing lost")
		}
	}
}

// BenchmarkFigure6WindowSweep — Figure 6: pairings vs write-window size.
func BenchmarkFigure6WindowSweep(b *testing.B) {
	c := benchCorpus(0.15, 21)
	windows := []int{0, 1, 3, 5, 10}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts := report.Figure6(c, windows, ofence.DefaultOptions())
		if pts[0].Pairings >= pts[3].Pairings {
			b.Fatalf("sweep shape wrong: %v", pts)
		}
	}
}

// BenchmarkFigure7ReadDistances — Figure 7: the read-distance histogram.
func BenchmarkFigure7ReadDistances(b *testing.B) {
	c := benchCorpus(0.25, 5)
	ev := report.RunCorpus(c, ofence.DefaultOptions())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buckets := report.Figure7(ev)
		total := 0
		for _, bk := range buckets {
			total += bk.Count
		}
		if total == 0 {
			b.Fatal("no distances")
		}
	}
}

// BenchmarkFullCorpusAnalysis — §6.1: the full-corpus run the paper times at
// 8 minutes on the real kernel (614 files).
func BenchmarkFullCorpusAnalysis(b *testing.B) {
	c := benchCorpus(1.0, 42)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := report.RunCorpus(c, ofence.DefaultOptions())
		if len(ev.Result.Sites) == 0 {
			b.Fatal("no sites")
		}
	}
}

// BenchmarkSingleFileIncremental — §6.1: re-analysis of one file (<30 s in
// the paper).
func BenchmarkSingleFileIncremental(b *testing.B) {
	c := benchCorpus(1.0, 42)
	name := c.Order[0]
	src := c.Files[name]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		proj := ofence.NewProject()
		proj.AddSource(name, src)
		mustAnalyze(b, proj, ofence.DefaultOptions())
	}
}

// BenchmarkSection62FixturePatches — §6.2: detect and patch all the paper's
// bugs (Patches 1-4).
func BenchmarkSection62FixturePatches(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows := report.RunFixtures(ofence.DefaultOptions())
		for _, r := range rows {
			if !r.Match {
				b.Fatalf("%s: mismatch", r.Fixture.Name)
			}
		}
	}
}

// BenchmarkSection63UnneededBarriers — §6.3: unneeded-barrier removal
// patches on the corpus.
func BenchmarkSection63UnneededBarriers(b *testing.B) {
	c := benchCorpus(0.25, 9)
	ev := report.RunCorpus(c, ofence.DefaultOptions())
	var unneeded []*ofence.Finding
	for _, f := range ev.Result.Findings {
		if f.Kind == ofence.UnneededBarrier {
			unneeded = append(unneeded, f)
		}
	}
	if len(unneeded) == 0 {
		b.Fatal("no unneeded barriers in corpus")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range unneeded {
			if _, err := patch.Generate(f); err != nil {
				b.Fatalf("patch: %v", err)
			}
		}
	}
}

// BenchmarkSection64Coverage — §6.4: pairing coverage and precision against
// ground truth.
func BenchmarkSection64Coverage(b *testing.B) {
	c := benchCorpus(0.5, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := report.RunCorpus(c, ofence.DefaultOptions())
		st := report.Coverage(ev)
		if st.CorrectlyPaired != st.ExpectedPairs {
			b.Fatalf("recall: %d/%d", st.CorrectlyPaired, st.ExpectedPairs)
		}
		if st.IncorrectPairings != 0 {
			b.Fatalf("incorrect pairings: %d", st.IncorrectPairings)
		}
	}
}

// BenchmarkSection7OnceAnnotations — §7: the READ_ONCE/WRITE_ONCE extension
// on a paired pattern.
func BenchmarkSection7OnceAnnotations(b *testing.B) {
	var fx corpus.Fixture
	for _, f := range corpus.Fixtures() {
		if f.Name == "select.c" {
			fx = f
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		proj := ofence.NewProject()
		proj.AddSource(fx.Name, fx.Source)
		res := mustAnalyze(b, proj, ofence.DefaultOptions())
		n := 0
		for _, f := range res.Findings {
			if f.Kind == ofence.MissingOnce {
				n++
			}
		}
		if n == 0 {
			b.Fatal("no annotation findings")
		}
	}
}

// BenchmarkAblationNoGenericFilter — ablation: disabling the generic-struct
// filter admits the decoy pairings the paper calls its main FP source.
func BenchmarkAblationNoGenericFilter(b *testing.B) {
	cfg := corpus.DefaultConfig(11)
	cfg.Counts = map[corpus.PatternKind]int{
		corpus.InitFlag:     10,
		corpus.GenericDecoy: 6,
	}
	c := corpus.Generate(cfg)
	with := ofence.DefaultOptions()
	without := ofence.DefaultOptions()
	without.GenericStructs = nil
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		evWith := report.RunCorpus(c, with)
		evWithout := report.RunCorpus(c, without)
		if len(evWithout.Result.Pairings) <= len(evWith.Result.Pairings) {
			b.Fatalf("filter ablation invisible: with=%d without=%d",
				len(evWith.Result.Pairings), len(evWithout.Result.Pairings))
		}
	}
}

// BenchmarkAblationInlineDepth — ablation: §4.2's one-level callee
// exploration versus none.
func BenchmarkAblationInlineDepth(b *testing.B) {
	src := `
struct s { int a; int b; };
static void init_part(struct s *p) {
	p->a = 1;
}
void w(struct s *p) {
	init_part(p);
	smp_wmb();
	p->b = 1;
}
void r(struct s *p) {
	if (!p->b)
		return;
	smp_rmb();
	use(p->a);
}`
	for _, depth := range []int{0, 1} {
		depth := depth
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			opts := ofence.DefaultOptions()
			opts.Access.InlineDepth = depth
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				proj := ofence.NewProject()
				proj.AddSource("inline.c", src)
				res := mustAnalyze(b, proj, opts)
				want := 0
				if depth >= 1 {
					want = 1
				}
				if len(res.Pairings) != want {
					b.Fatalf("depth %d: pairings = %d, want %d", depth, len(res.Pairings), want)
				}
			}
		})
	}
}

// BenchmarkAnalyzeSequentialVsParallel — the serving-path optimisation: the
// same corpus analyzed with one worker versus a GOMAXPROCS pool through
// AnalyzeParallel. The findings must be identical either way; on multi-core
// machines the parallel variant's wall clock drops with the pool size.
func BenchmarkAnalyzeSequentialVsParallel(b *testing.B) {
	c := benchCorpus(0.5, 23)
	srcs := c.Sources()
	want := -1
	run := func(b *testing.B, workers int) {
		opts := ofence.DefaultOptions()
		opts.Workers = workers
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			proj := ofence.NewProject()
			proj.AddSources(srcs)
			res, err := proj.AnalyzeParallel(context.Background(), opts)
			if err != nil {
				b.Fatal(err)
			}
			if want == -1 {
				want = len(res.Findings)
			} else if len(res.Findings) != want {
				b.Fatalf("findings = %d, want %d (sequential and parallel runs disagree)",
					len(res.Findings), want)
			}
		}
	}
	b.Run("sequential", func(b *testing.B) { run(b, 1) })
	b.Run("parallel", func(b *testing.B) { run(b, runtime.GOMAXPROCS(0)) })
}

// BenchmarkParserThroughput — substrate: parsing speed over the corpus,
// the analogous cost to Smatch's frontend.
func BenchmarkParserThroughput(b *testing.B) {
	c := benchCorpus(0.5, 13)
	var total int
	for _, name := range c.Order {
		total += len(c.Files[name])
	}
	b.SetBytes(int64(total))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, name := range c.Order {
			cparser.ParseSource(name, c.Files[name], cpp.Options{})
		}
	}
}

// BenchmarkBaselineLockset — §8 comparison: the Eraser/RacerX-style lockset
// baseline on the same corpus. It must warn identically on correct and buggy
// barrier patterns (no discrimination) while staying silent on
// lock-protected code.
func BenchmarkBaselineLockset(b *testing.B) {
	c := benchCorpus(0.25, 19)
	ev := report.RunCorpus(c, ofence.DefaultOptions())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := report.Baseline(ev)
		if st.LockProtectedWarned != 0 {
			b.Fatalf("lockset warned on lock-protected code: %d", st.LockProtectedWarned)
		}
		if st.BuggyWarned != st.BuggyPatterns || st.CorrectWarned != st.CorrectPatterns {
			b.Fatalf("baseline discriminated: buggy %d/%d correct %d/%d",
				st.BuggyWarned, st.BuggyPatterns, st.CorrectWarned, st.CorrectPatterns)
		}
	}
}

// BenchmarkValidationLitmus — litmus-confirming every finding of a corpus
// run (the validate package).
func BenchmarkValidationLitmus(b *testing.B) {
	c := benchCorpus(0.25, 29)
	ev := report.RunCorpus(c, ofence.DefaultOptions())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := report.Validation(ev)
		if st.Unconfirmed != 0 {
			b.Fatalf("unconfirmed: %d of %d", st.Unconfirmed, st.Checked)
		}
	}
}

// BenchmarkCensus — the §1 census sweep over every function.
func BenchmarkCensus(b *testing.B) {
	c := benchCorpus(0.25, 31)
	ev := report.RunCorpus(c, ofence.DefaultOptions())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := report.Census(ev)
		if st.Functions == 0 {
			b.Fatal("census empty")
		}
	}
}

// BenchmarkAblationPairingThreshold — the paper's "at least two shared
// objects" rule: ablating the threshold to one admits single-object decoy
// pairings.
func BenchmarkAblationPairingThreshold(b *testing.B) {
	cfg := corpus.DefaultConfig(71)
	cfg.Counts = map[corpus.PatternKind]int{
		corpus.InitFlag:          10,
		corpus.SingleObjectDecoy: 6,
	}
	c := corpus.Generate(cfg)
	strict := ofence.DefaultOptions()
	loose := ofence.DefaultOptions()
	loose.MinSharedObjects = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st2 := report.Coverage(report.RunCorpus(c, strict))
		st1 := report.Coverage(report.RunCorpus(c, loose))
		if st2.IncorrectPairings != 0 {
			b.Fatalf("threshold 2 admitted %d incorrect pairings", st2.IncorrectPairings)
		}
		if st1.IncorrectPairings == 0 {
			b.Fatal("threshold 1 ablation invisible")
		}
	}
}

// BenchmarkInterprocDepth — the cost of interprocedural mode: the full
// corpus analyzed with the paper's same-file analysis (depth 0) versus the
// cross-file call graph, fixpoint semantics inference, and resolver-driven
// inlining at depth 2. Depth 0 must stay byte-identical to the seed
// pipeline; depth 2 pays for graph construction plus the global site dedup.
func BenchmarkInterprocDepth(b *testing.B) {
	c := benchCorpus(0.5, 42)
	for _, depth := range []int{0, 2} {
		depth := depth
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			opts := ofence.DefaultOptions()
			opts.InterprocDepth = depth
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				proj := ofence.NewProject()
				proj.AddSources(c.Sources())
				res, err := proj.AnalyzeParallel(context.Background(), opts)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Pairings) == 0 {
					b.Fatal("no pairings on the benchmark corpus")
				}
				if depth > 0 && res.CallGraph.Functions == 0 {
					b.Fatal("interproc run built no call graph")
				}
			}
		})
	}
}

// incrementalBenchFile builds one self-contained pairing file with unique
// identifiers, so the 64 files of the incremental benchmark never interact.
func incrementalBenchFile(i int) ofence.SourceFile {
	return ofence.SourceFile{
		Name: fmt.Sprintf("inc_%03d.c", i),
		Src:  incrementalBenchSrc(i, 1),
	}
}

// incrementalBenchSrc parameterizes the stored value so successive edits of
// one file always change its preprocessed content hash. The pattern is the
// paper's correctly-annotated publish/consume idiom, so the benchmark
// measures re-analysis latency rather than finding construction.
func incrementalBenchSrc(i, rev int) string {
	return fmt.Sprintf(`
struct inc%d { int flag; int data; };
void inc_w_%d(struct inc%d *p) {
	WRITE_ONCE(p->data, %d);
	smp_wmb();
	WRITE_ONCE(p->flag, 1);
}
void inc_r_%d(struct inc%d *p) {
	smp_rmb();
	if (!READ_ONCE(p->flag))
		return;
	use(READ_ONCE(p->data));
}`, i, i, i, rev, i, i)
}

// BenchmarkReanalyzeOneFile — the incremental pipeline's headline number
// (paper §6.1): a 64-file project in which each iteration edits ONE file.
// "cold" rebuilds and re-analyzes the whole project from scratch;
// "incremental" applies the edit with ReplaceSource and re-analyzes, which
// re-runs the per-file stages only for the edited file. DESIGN §11 keeps
// the ratio it last recorded; bench/ (edit_d0, edit_d1) is the live
// measurement.
func BenchmarkReanalyzeOneFile(b *testing.B) {
	const nFiles = 64
	srcs := make([]ofence.SourceFile, nFiles)
	for i := range srcs {
		srcs[i] = incrementalBenchFile(i)
	}
	opts := ofence.DefaultOptions()

	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			edited := make([]ofence.SourceFile, nFiles)
			copy(edited, srcs)
			edited[0].Src = incrementalBenchSrc(0, i+2)
			p := ofence.NewProject()
			kernelhdr.Register(p)
			p.AddSources(edited)
			if res := mustAnalyze(b, p, opts); len(res.Pairings) != nFiles {
				b.Fatalf("pairings = %d, want %d", len(res.Pairings), nFiles)
			}
		}
	})

	b.Run("incremental", func(b *testing.B) {
		p := ofence.NewProject()
		kernelhdr.Register(p)
		p.AddSources(srcs)
		mustAnalyze(b, p, opts)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.ReplaceSource("inc_000.c", incrementalBenchSrc(0, i+2))
			res := mustAnalyze(b, p, opts)
			if len(res.Pairings) != nFiles {
				b.Fatalf("pairings = %d, want %d", len(res.Pairings), nFiles)
			}
			if got := res.Incremental.FilesRecomputed; got != 1 {
				b.Fatalf("recomputed = %d, want 1", got)
			}
		}
	})
}

// BenchmarkPairSitesKernelScale measures the exported pairing entry point
// over the synthetic kernel-scale corpus (internal/sitegen). The engine
// runs on one goroutine, so the worker count should not move it. The
// white-box old-vs-new comparison — including the preserved pre-index
// pairer — lives in internal/ofence (BenchmarkPairKernelScale).
func BenchmarkPairSitesKernelScale(b *testing.B) {
	sites := sitegen.Generate(sitegen.DefaultConfig(2000, 42))
	opts := ofence.DefaultOptions()
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			o := opts
			o.Workers = workers
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pairings, _, _, _ := ofence.PairSites(context.Background(), sites, o)
				if len(pairings) == 0 {
					b.Fatal("no pairings")
				}
			}
		})
	}
}
