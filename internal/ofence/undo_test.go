package ofence_test

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"ofence/internal/obs"
	"ofence/internal/ofence"
	"ofence/internal/sitegen"
)

// frontEndRuns analyzes p under a tracer and returns the result and the
// number of "parse" spans: files whose front end ran.
func frontEndRuns(t *testing.T, p *ofence.Project, opts ofence.Options) (*ofence.Result, int) {
	t.Helper()
	tracer := obs.New()
	res, err := p.AnalyzeParallel(obs.WithTracer(context.Background(), tracer), opts)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, sp := range tracer.Spans() {
		if sp.Name() == "parse" {
			n++
		}
	}
	return res, n
}

// coldJSON is the -json of a fresh tree project whose file name holds src.
func coldJSON(t *testing.T, tr *sitegen.Tree, opts ofence.Options, name, src string) string {
	t.Helper()
	p := treeProject(tr)
	p.ReplaceSource(name, src)
	return viewJSON(t, mustAnalyze(t, p, opts))
}

// TestRestoreRecomputesNothing sets a file back to its previous source:
// the restored unit takes the record of the unit the edit replaced, so the
// front end runs for no file, and the result equals a cold run. At depth
// 0 no file is extracted again; at depth 1 only the files that read the
// restored file are (their observed inputs moved twice), never the file
// itself.
func TestRestoreRecomputesNothing(t *testing.T) {
	tr := sitegen.GenerateTree(sitegen.DefaultTreeSpec(64, 1))
	for _, depth := range []int{0, 1} {
		opts := ofence.DefaultOptions()
		opts.InterprocDepth = depth
		p := treeProject(tr)
		mustAnalyze(t, p, opts)
		rng := rand.New(rand.NewSource(int64(depth)))
		for step := 0; step < 6; step++ {
			f := tr.Files[rng.Intn(len(tr.Files))]
			p.ReplaceSource(f.Name, literalEdit(t, rng, f.Src))
			edit := mustAnalyze(t, p, opts)
			p.ReplaceSource(f.Name, f.Src)
			res, parsed := frontEndRuns(t, p, opts)
			if parsed != 0 {
				t.Errorf("depth %d, %s: the restore ran the front end of %d files, want 0", depth, f.Name, parsed)
			}
			recomputed := res.Incremental.FilesRecomputed
			if depth == 0 && recomputed != 0 {
				t.Errorf("depth 0, %s: the restore recomputed %d files, want 0", f.Name, recomputed)
			}
			if depth == 1 && recomputed >= edit.Incremental.FilesRecomputed {
				t.Errorf("depth 1, %s: the restore recomputed %d files, the edit %d; want fewer", f.Name, recomputed, edit.Incremental.FilesRecomputed)
			}
			if got, want := viewJSON(t, res), coldJSON(t, tr, opts, f.Name, f.Src); got != want {
				t.Fatalf("depth %d, %s: the restored run differs from a cold run", depth, f.Name)
			}
		}
	}
}

// TestRestoreAfterDefineRerunsFrontEnd: a define changes what every file
// preprocesses to, so it drops the undo records, and a source set back
// after it runs the front end again.
func TestRestoreAfterDefineRerunsFrontEnd(t *testing.T) {
	tr := sitegen.GenerateTree(sitegen.DefaultTreeSpec(32, 1))
	opts := ofence.DefaultOptions()
	p := treeProject(tr)
	mustAnalyze(t, p, opts)
	f := tr.Files[3]
	p.ReplaceSource(f.Name, literalEdit(t, rand.New(rand.NewSource(1)), f.Src))
	mustAnalyze(t, p, opts)
	p.Define("OFENCE_UNDO_TEST", "1")
	mustAnalyze(t, p, opts)
	p.ReplaceSource(f.Name, f.Src)
	res, parsed := frontEndRuns(t, p, opts)
	if parsed != 1 {
		t.Errorf("the restore after a define ran the front end of %d files, want 1", parsed)
	}
	cold := treeProject(tr)
	cold.Define("OFENCE_UNDO_TEST", "1")
	if got, want := viewJSON(t, res), viewJSON(t, mustAnalyze(t, cold, opts)); got != want {
		t.Error("the restored run differs from a cold run")
	}
}

// TestCloneKeepsUndo: a clone copies each unit's undo record, so a source
// the original replaced is restored in the clone without front-end work,
// and the original keeps its own.
func TestCloneKeepsUndo(t *testing.T) {
	tr := sitegen.GenerateTree(sitegen.DefaultTreeSpec(32, 1))
	opts := ofence.DefaultOptions()
	p := treeProject(tr)
	mustAnalyze(t, p, opts)
	f := tr.Files[5]
	p.ReplaceSource(f.Name, literalEdit(t, rand.New(rand.NewSource(2)), f.Src))
	mustAnalyze(t, p, opts)
	want := coldJSON(t, tr, opts, f.Name, f.Src)
	for _, q := range []*ofence.Project{p.Clone(), p} {
		q.ReplaceSource(f.Name, f.Src)
		res, parsed := frontEndRuns(t, q, opts)
		if parsed != 0 || res.Incremental.FilesRecomputed != 0 {
			t.Errorf("restore: %d front ends, %d files recomputed; want 0 and 0", parsed, res.Incremental.FilesRecomputed)
		}
		if viewJSON(t, res) != want {
			t.Error("the restored run differs from a cold run")
		}
	}
}

// TestLiveHeapBoundedOverEdits edits eight files of a warm project over
// and over, never to a source seen before, and compares the live heap
// after 20 edits with the heap after 200: a warm project keeps one record
// and one undo record per file, so old edits' artifacts must not pile up.
func TestLiveHeapBoundedOverEdits(t *testing.T) {
	if testing.Short() {
		t.Skip("analyzes 200 edits")
	}
	tr := sitegen.GenerateTree(sitegen.DefaultTreeSpec(128, 1))
	opts := ofence.DefaultOptions()
	p := treeProject(tr)
	mustAnalyze(t, p, opts)
	cur := map[string]string{}
	seen := map[string]bool{}
	for _, f := range tr.Files[:8] {
		cur[f.Name] = f.Src
		seen[f.Src] = true
	}
	rng := rand.New(rand.NewSource(1))
	edit := func() {
		f := tr.Files[rng.Intn(8)]
		src := literalEdit(t, rng, cur[f.Name])
		for seen[src] {
			src = literalEdit(t, rng, src)
		}
		seen[src], cur[f.Name] = true, src
		p.ReplaceSource(f.Name, src)
		mustAnalyze(t, p, opts)
	}
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for i := 0; i < 20; i++ {
		edit()
	}
	at20 := liveHeap()
	for i := 20; i < 200; i++ {
		edit()
	}
	at200 := liveHeap()
	t.Logf("live heap after 20 edits %d B, after 200 %d B", at20, at200)
	const bound = 2 << 20
	if at200 > at20+bound {
		t.Errorf("the live heap grew by %d B over 180 edits, want at most %d", at200-at20, bound)
	}
	runtime.KeepAlive(p)
}
