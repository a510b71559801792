package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"ofence/internal/kernelhdr"
	"ofence/internal/ofence"
	"ofence/internal/sitegen"
)

// treeInput is a generated kernel tree as the CLI loads one: the miniature
// kernel headers, the tree's subsystem headers, every other one of its
// config symbols defined, and its sources.
type treeInput struct {
	tree    *sitegen.Tree
	include map[string]string
	defines map[string]string
}

func newTreeInput(files int, seed int64) *treeInput {
	tr := sitegen.GenerateTree(sitegen.DefaultTreeSpec(files, seed))
	in := &treeInput{tree: tr, include: kernelhdr.Headers(), defines: map[string]string{}}
	for _, h := range tr.Headers {
		in.include[h.Name] = h.Src
	}
	for i, c := range tr.Configs {
		if i%2 == 0 {
			in.defines[c] = "1"
		}
	}
	return in
}

// project returns a project with the tree's headers and defines and no
// sources.
func (in *treeInput) project() *ofence.Project {
	p := ofence.NewProject()
	for name, src := range in.include {
		p.AddHeader(name, src)
	}
	for name, v := range in.defines {
		p.Define(name, v)
	}
	return p
}

func (in *treeInput) sources() []ofence.SourceFile {
	out := make([]ofence.SourceFile, len(in.tree.Files))
	for i, f := range in.tree.Files {
		out[i] = ofence.SourceFile{Name: f.Name, Src: f.Src}
	}
	return out
}

func (in *treeInput) probeInput(p *ofence.Project, res *ofence.Result, opts ofence.Options, files []ofence.SourceFile) probeInput {
	return probeInput{proj: p, res: res, opts: opts, include: in.include, defines: in.defines, files: files}
}

// treeOptions are the CLI's options at the given depth, with Workers set to
// GOMAXPROCS.
func treeOptions(depth int) ofence.Options {
	opts := ofence.DefaultOptions()
	opts.InterprocDepth = depth
	opts.Workers = runtime.GOMAXPROCS(0)
	return opts
}

// labelMismatches counts the tree's labelled message-passing functions
// whose pairing contradicts TreeLabel.ExpectPaired: a function counts as
// paired when one pairing holds a barrier site of it and of its partner. A
// writer publishing through a helper in the next file, and that writer's
// reader, pair only when analysis splices callees across files, so depth 0
// skips them.
func labelMismatches(tr *sitegen.Tree, res *ofence.Result, depth int) []string {
	pairedWith := map[[2]string]bool{}
	for _, pg := range res.Pairings {
		for _, a := range pg.Sites {
			for _, b := range pg.Sites {
				pairedWith[[2]string{a.Fn.Name, b.Fn.Name}] = true
			}
		}
	}
	helper := map[string]bool{}
	for _, labels := range tr.Labels {
		for _, l := range labels {
			if l.Kind == "mp-writer-helper" {
				helper[l.Fn], helper[l.Partner] = true, true
			}
		}
	}
	var out []string
	for _, f := range tr.Files {
		for _, l := range tr.Labels[f.Name] {
			if l.Partner == "" || depth == 0 && helper[l.Fn] {
				continue
			}
			if pairedWith[[2]string{l.Fn, l.Partner}] != l.ExpectPaired {
				out = append(out, fmt.Sprintf("%s: %s (partner %s) expected paired=%t", f.Name, l.Fn, l.Partner, l.ExpectPaired))
			}
		}
	}
	return out
}

// coldTree analyzes the whole tree cold for every verdict, at depth 0:
// the CLI default and the paper's mode.
type coldTree struct {
	cfg        *config
	in         *treeInput
	mismatches []string
}

func (c *coldTree) setup() error {
	c.in = newTreeInput(c.cfg.treeFiles, c.cfg.seed)
	// Warm-up: one cold analysis, so code and allocator are warm.
	_, err := c.in.project().AnalyzeSourcesCtx(context.Background(), c.in.sources(), treeOptions(0))
	return err
}

func (c *coldTree) window(w *window) error {
	ctx := context.Background()
	opts := treeOptions(0)
	srcs := c.in.sources()
	for range w.n {
		if w.late() {
			break
		}
		// Each verdict starts from a collected heap, as a fresh CLI process
		// would.
		runtime.GC()
		op := w.nextOp()
		root := w.rec.open("verdict", -1, op)
		start := time.Now()
		p := c.in.project()
		t := time.Now()
		res, err := p.AnalyzeSourcesCtx(ctx, srcs, opts)
		end := time.Now()
		w.rec.record("ofence.project", root, op, start, t)
		w.rec.record("ofence.analyze", root, op, t, end)
		w.rec.finish(root, start, end)
		if err != nil {
			w.failed++
			continue
		}
		w.verdict(start, end)
		w.analyze = append(w.analyze, ms(end.Sub(t)))
		w.recomputedSum += float64(res.Incremental.FilesRecomputed)
		w.recomputedN++
		w.addStages(nil, p.StageStats())
		c.mismatches = append(c.mismatches, labelMismatches(c.in.tree, res, 0)...)
		if w.rec != nil {
			pb, err := runProbe(ctx, w.rec, w.nextOp(), c.in.probeInput(p, res, opts, srcs))
			if err != nil {
				return err
			}
			w.probes = append(w.probes, pb)
		}
	}
	return nil
}

func (c *coldTree) finish(r *report) error {
	reportMismatches(r, c.mismatches)
	return nil
}

func (c *coldTree) close() { c.in = nil }

func reportMismatches(r *report, mismatches []string) {
	r.Extra["label_mismatches"] = metric{float64(len(mismatches)), "count"}
	for i, m := range mismatches {
		if i == 5 {
			r.problem("... %d more label mismatches", len(mismatches)-i)
			break
		}
		r.problem("label mismatch: %s", m)
	}
}

// editLoop is a closed loop of one-file edits on a warm project: replace
// one file's source, then re-analyze.
type editLoop struct {
	cfg   *config
	depth int
	in    *treeInput
	proj  *ofence.Project
	ed    *editor
	last  *ofence.Result
}

func (e *editLoop) setup() error {
	e.in = newTreeInput(e.cfg.treeFiles, e.cfg.seed)
	e.proj = e.in.project()
	srcs := e.in.sources()
	res, err := e.proj.AnalyzeSourcesCtx(context.Background(), srcs, treeOptions(e.depth))
	if err != nil {
		return err
	}
	e.ed = newEditor(e.cfg.seed, srcs)
	e.last = res
	return nil
}

func (e *editLoop) window(w *window) error {
	ctx := context.Background()
	opts := treeOptions(e.depth)
	var replace []float64
	restores := 0
	for i := range w.n {
		if w.late() {
			break
		}
		name, src, restored, err := e.ed.next()
		if err != nil {
			return err
		}
		if restored {
			restores++
		}
		before := e.proj.StageStats()
		op := w.nextOp()
		root := w.rec.open("verdict", -1, op)
		start := time.Now()
		replaced := e.proj.ReplaceSource(name, src)
		t := time.Now()
		res, err := e.proj.AnalyzeParallel(ctx, opts)
		end := time.Now()
		w.rec.record("ofence.replace", root, op, start, t)
		w.rec.record("ofence.analyze", root, op, t, end)
		w.rec.finish(root, start, end)
		if replaced == nil || err != nil {
			w.failed++
			continue
		}
		w.verdict(start, end)
		replace = append(replace, ms(t.Sub(start)))
		w.analyze = append(w.analyze, ms(end.Sub(t)))
		w.recomputedSum += float64(res.Incremental.FilesRecomputed)
		w.recomputedN++
		w.addStages(before, e.proj.StageStats())
		e.last = res
		if w.rec != nil && ((i+1)%10 == 0 || i == w.n-1) {
			files := []ofence.SourceFile{{Name: name, Src: src}}
			pb, err := runProbe(ctx, w.rec, w.nextOp(), e.in.probeInput(e.proj, res, opts, files))
			if err != nil {
				return err
			}
			w.probes = append(w.probes, pb)
		}
	}
	w.extra["ofence.replace_ms_p50"] = metric{median(replace), "ms"}
	w.extra["edit.restore_frac"] = metric{float64(restores) / float64(max(len(w.verdicts)+w.failed, 1)), "ratio"}
	return nil
}

// finish checks the warm result against the labels and against a cold
// analysis of the final sources, which must serialize byte-identically.
func (e *editLoop) finish(r *report) error {
	reportMismatches(r, labelMismatches(e.in.tree, e.last, e.depth))
	warm, err := json.Marshal(e.last.View())
	if err != nil {
		return err
	}
	e.proj, e.last = nil, nil
	runtime.GC()
	res, err := e.in.project().AnalyzeSourcesCtx(context.Background(), e.ed.sources(), treeOptions(e.depth))
	if err != nil {
		return err
	}
	cold, err := json.Marshal(res.View())
	if err != nil {
		return err
	}
	r.Attempted++
	if !bytes.Equal(warm, cold) {
		r.Failed++
		r.problem("warm result after the edits differs from a cold analysis of the final sources")
	}
	return nil
}

func (e *editLoop) close() { e.in, e.proj, e.ed, e.last = nil, nil, nil, nil }
