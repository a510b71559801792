package ofence_test

import (
	"context"
	"fmt"
	"math/rand"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"

	"ofence/internal/access"
	"ofence/internal/obs"
	"ofence/internal/ofence"
	"ofence/internal/rank"
	"ofence/internal/sitegen"
)

// pairingFixtures are the pairing shapes a sitegen tree rarely makes: a
// seqcount protocol whose two duos merge into one four-barrier pairing, a
// second reader that joins a pairing in the extension step, a writer left
// unpaired as implicit IPC, and a macro expanding two barriers at one
// source position.
func pairingFixtures() []ofence.SourceFile {
	return []ofence.SourceFile{
		{Name: "pf_seq.c", Src: `
struct pf_ctr { u64 bcnt; u64 pcnt; };

static void pf_get(struct pf_ctr *tmp, seqcount_t *s)
{
	unsigned int v;
	u64 bcnt, pcnt;
	do {
		v = read_seqcount_begin(s);
		bcnt = tmp->bcnt;
		pcnt = tmp->pcnt;
	} while (read_seqcount_retry(s, v));
	use(bcnt, pcnt);
}

static void pf_add(struct pf_ctr *t, seqcount_t *s)
{
	write_seqcount_begin(s);
	t->bcnt += 1;
	t->pcnt += 2;
	write_seqcount_end(s);
}
`},
		{Name: "pf_ext.c", Src: `
struct pf_msg { int a; int b; };

void pf_send(struct pf_msg *p)
{
	p->a = 1;
	smp_wmb();
	p->b = 1;
}

int pf_recv(struct pf_msg *p)
{
	if (!p->b)
		return 0;
	smp_rmb();
	return p->a;
}

int pf_peek(struct pf_msg *p)
{
	if (!p->b)
		return 0;
	smp_rmb();
	return p->a + 3;
}
`},
		{Name: "pf_ipc.c", Src: `
struct pf_task { int data; int flag; struct task_struct *task; };

void pf_wake(struct pf_task *p)
{
	p->data = 2;
	smp_wmb();
	wake_up_process(p->task);
}
`},
		{Name: "pf_macro.c", Src: `
struct pf_pub { int val; int flag; };
#define PF_PUBLISH(p, v) do { (p)->val = (v); smp_wmb(); (p)->flag = 1; smp_mb(); } while (0)

void pf_publish(struct pf_pub *p)
{
	PF_PUBLISH(p, 5);
}

int pf_consume(struct pf_pub *p)
{
	if (!p->flag)
		return 0;
	smp_rmb();
	return p->val;
}
`},
	}
}

// renderPairing renders a pairing result by value: every pairing's sites,
// common objects and weight, then the unpaired and implicit-IPC sites.
func renderPairing(pairings []*ofence.Pairing, unpaired, implicit []*access.Site) string {
	var sb strings.Builder
	for _, pg := range pairings {
		fmt.Fprintf(&sb, "w=%d", pg.Weight)
		for _, s := range pg.Sites {
			sb.WriteString(" " + s.ID())
		}
		for _, o := range pg.Common {
			sb.WriteString(" " + o.String())
		}
		sb.WriteString("\n")
	}
	for _, list := range [2][]*access.Site{unpaired, implicit} {
		sb.WriteString("--")
		for _, s := range list {
			sb.WriteString(" " + s.ID())
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// checkColdPairing fails unless res's pairings, unpaired and implicit-IPC
// sites equal a cold PairSites over res's sites. The writers' margins have
// no output of their own: the callers compare the findings' confidences,
// which rank derives from them, against a cold analysis.
func checkColdPairing(t *testing.T, label string, res *ofence.Result, opts ofence.Options) {
	t.Helper()
	pairings, unpaired, implicit, _ := ofence.PairSites(context.Background(), res.Sites, opts)
	if got, want := renderPairing(res.Pairings, res.Unpaired, res.ImplicitIPC), renderPairing(pairings, unpaired, implicit); got != want {
		t.Fatalf("%s: warm pairing differs from a cold PairSites:\n%s\nwant:\n%s", label, got, want)
	}
}

// pairingEditor applies the seeded edits of the incremental pairing tests
// to a set of sources: literal, structural, object-adding (a new site on
// another file's pairing object, half the time with new objects),
// object-removing ones (a file back to its original source) and
// barrier-removing ones (one barrier statement deleted).
type pairingEditor struct {
	orig, cur map[string]string
	names     []string
}

func newPairingEditor(srcs []ofence.SourceFile) *pairingEditor {
	e := &pairingEditor{orig: map[string]string{}, cur: map[string]string{}}
	for _, s := range srcs {
		e.orig[s.Name], e.cur[s.Name] = s.Src, s.Src
		e.names = append(e.names, s.Name)
	}
	return e
}

// voidFunc matches the head of a definition of a function that takes no
// arguments, capturing its name.
var voidFunc = regexp.MustCompile(`(?m)^void ([a-z_0-9]+)\(void\)\n\{\n`)

// barrierStmt matches a statement line that is one barrier call.
var barrierStmt = regexp.MustCompile(`(?m)^\t+(smp_[a-z_]+|write_seqcount_(begin|end))\([^)]*\);\n`)

// edit applies edit kind (0 literal, 1 structural, 2 and 3 object-adding,
// 4 object-removing, 5 a new call of another file's function, which
// changes the call graph, 6 barrier-removing, which leaves a pairing
// without a half and moves every later site down) to file name and
// returns the kind's label. A kind the file has nothing for falls back to
// a literal edit.
func (e *pairingEditor) edit(t *testing.T, rng *rand.Rand, step, kind int, name string, res *ofence.Result) string {
	t.Helper()
	switch kind {
	case 6:
		if at := barrierStmt.FindAllStringIndex(e.cur[name], -1); len(at) > 0 {
			l := at[rng.Intn(len(at))]
			e.cur[name] = e.cur[name][:l[0]] + e.cur[name][l[1]:]
			return "barrier-removing"
		}
	case 5:
		at := voidFunc.FindStringIndex(e.cur[name])
		for _, other := range e.names {
			if m := voidFunc.FindStringSubmatch(e.cur[other]); other != name && m != nil && at != nil {
				e.cur[name] = e.cur[name][:at[1]] + "\t" + m[1] + "();\n" + e.cur[name][at[1]:]
				return "new call"
			}
		}
	case 1:
		e.cur[name] = structuralEdit(t, step, e.cur[name])
		return "structural"
	case 2, 3:
		e.cur[name] = objectEdit(step, e.cur[name], foreignObject(t, res, name), kind == 3)
		return "object-adding"
	case 4:
		e.cur[name] = e.orig[name]
		return "object-removing"
	}
	e.cur[name] = literalEdit(t, rng, e.cur[name])
	return "literal"
}

// sources returns every file with its current source.
func (e *pairingEditor) sources() []ofence.SourceFile {
	out := make([]ofence.SourceFile, len(e.names))
	for i, n := range e.names {
		out[i] = ofence.SourceFile{Name: n, Src: e.cur[n]}
	}
	return out
}

// pairingTree loads a generated tree plus the pairing fixtures into a
// fresh project and returns the project and an editor over the sources.
func pairingTree(files int, seed int64) (*ofence.Project, *pairingEditor, *sitegen.Tree) {
	tr := sitegen.GenerateTree(sitegen.DefaultTreeSpec(files, seed))
	p := ofence.NewProject()
	loadTree(p, tr)
	p.AddSources(pairingFixtures())
	var srcs []ofence.SourceFile
	for _, f := range tr.Files {
		srcs = append(srcs, ofence.SourceFile{Name: f.Name, Src: f.Src})
	}
	return p, newPairingEditor(append(srcs, pairingFixtures()...)), tr
}

// coldTree analyzes the tree's environment with srcs in a fresh project.
func coldTree(t *testing.T, tr *sitegen.Tree, srcs []ofence.SourceFile, opts ofence.Options) *ofence.Result {
	t.Helper()
	p := ofence.NewProject()
	loadTree(p, tr)
	p.AddSources(srcs)
	return mustAnalyze(t, p, opts)
}

// TestIncrementalPairingDifferential drives seeded edit sequences over a
// generated tree plus the pairing fixtures — literal, structural,
// object-adding and object-removing edits — and toggles CheckOnce, the
// generic filter and MinSharedObjects for two of every eight steps, from
// depth 0 with MinSharedObjects 2 and 1 and from depth 1. After every
// warm run the pairings, unpaired and implicit-IPC sites and margins must
// equal a cold PairSites over the run's sites, and the -json output a cold
// analysis's. A literal edit that keeps the record must keep every pairing
// with no site in the edited file as the same *Pairing.
func TestIncrementalPairingDifferential(t *testing.T) {
	cases := []struct {
		name       string
		depth, min int
	}{{"depth0", 0, 2}, {"depth0/min1", 0, 1}, {"depth1", 1, 2}}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := ofence.DefaultOptions()
			opts.InterprocDepth = tc.depth
			opts.MinSharedObjects = tc.min
			opts.Workers = 2
			warm, ed, tr := pairingTree(24, 7)
			res := mustAnalyze(t, warm, opts)
			checkColdPairing(t, "cold", res, opts)
			if !slices.ContainsFunc(res.Pairings, func(pg *ofence.Pairing) bool { return len(pg.Sites) >= 4 }) ||
				len(res.ImplicitIPC) == 0 {
				t.Fatal("no four-barrier pairing or no implicit IPC; the fixtures lost their subject")
			}
			generic := foreignObject(t, res, "").Struct
			flips := []func(o *ofence.Options){
				func(o *ofence.Options) { o.CheckOnce = !o.CheckOnce },
				func(o *ofence.Options) {
					if slices.Contains(o.GenericStructs, generic) {
						o.GenericStructs = ofence.DefaultOptions().GenericStructs
					} else {
						o.GenericStructs = append(slices.Clone(o.GenericStructs), generic)
					}
				},
				func(o *ofence.Options) { o.MinSharedObjects = 3 - o.MinSharedObjects },
			}
			rng := rand.New(rand.NewSource(int64(ci) + 21))
			derived := 0
			for step := 0; step < 32; step++ {
				before := opts.Fingerprint()
				if step%8 == 6 {
					flips[(step/8)%len(flips)](&opts)
				} else if step%8 == 0 && step > 0 {
					flips[(step/8-1)%len(flips)](&opts)
				}
				name := ed.names[rng.Intn(len(ed.names))]
				kind := ed.edit(t, rng, step, step%5, name, res)
				warm.ReplaceSource(name, ed.cur[name])
				prev := res
				tracer := obs.New()
				var err error
				res, err = warm.AnalyzeParallel(obs.WithTracer(context.Background(), tracer), opts)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("step %d (%s edit of %s, options %s)", step, kind, name, opts.Fingerprint())
				checkColdPairing(t, label, res, opts)
				if w, c := viewJSON(t, res), viewJSON(t, coldTree(t, tr, ed.sources(), opts)); w != c {
					t.Fatalf("%s: warm output differs from cold", label)
				}
				reused := spanCounter(t, tracer, "pair", "pairings_reused")
				if reused > 0 || spanCounter(t, tracer, "pair", "objects_dirty") > 0 {
					derived++
				}
				if kind != "literal" || opts.Fingerprint() != before || !res.PairStats.InternerReused {
					continue
				}
				was := map[string]*ofence.Pairing{}
				for _, pg := range prev.Pairings {
					was[pg.Writer().ID()] = pg
				}
				for _, pg := range res.Pairings {
					if !slices.ContainsFunc(pg.Sites, func(s *access.Site) bool { return s.File == name }) && was[pg.Writer().ID()] != pg {
						t.Errorf("%s: pairing %s has no site in %s but was rebuilt", label, pg, name)
					}
				}
				if got := spanCounter(t, tracer, "pair", "pairings"); reused > got {
					t.Errorf("%s: %d pairings reused of %d", label, reused, got)
				}
			}
			if derived < 16 {
				t.Errorf("only %d of 32 runs derived their pairing from the record", derived)
			}
		})
	}
}

// TestCloneSharesPairRecord clones a project twice, analyzes the original
// once more on its own, and then analyzes all three concurrently after
// each took a different edit — a literal edit, a structural edit and an
// object edit with new objects. The clones start from the record the
// original published first, which the original has since replaced: the
// record must stay as it was while the clones read it. Every run must
// equal a cold analysis and a cold PairSites; run under -race by the CI
// race job.
func TestCloneSharesPairRecord(t *testing.T) {
	opts := ofence.DefaultOptions()
	opts.Workers = 2
	base, ed, tr := pairingTree(16, 5)
	res := mustAnalyze(t, base, opts)

	rng := rand.New(rand.NewSource(4))
	projects := []*ofence.Project{base, base.Clone(), base.Clone()}
	editors := make([]*pairingEditor, len(projects))
	names := make([]string, len(projects))
	for i := range projects {
		editors[i] = newPairingEditor(ed.sources())
	}
	editors[0].edit(t, rng, 0, 0, ed.names[1], res)
	base.ReplaceSource(ed.names[1], editors[0].cur[ed.names[1]])
	res = mustAnalyze(t, base, opts)
	for i, p := range projects {
		names[i] = ed.names[i*5]
		editors[i].edit(t, rng, i, []int{0, 1, 3}[i], names[i], res)
		p.ReplaceSource(names[i], editors[i].cur[names[i]])
	}

	results := make([]*ofence.Result, len(projects))
	tracers := make([]*obs.Tracer, len(projects))
	var wg sync.WaitGroup
	for i, p := range projects {
		tracers[i] = obs.New()
		wg.Add(1)
		go func(i int, p *ofence.Project) {
			defer wg.Done()
			res, err := p.AnalyzeParallel(obs.WithTracer(context.Background(), tracers[i]), opts)
			if err != nil {
				t.Error(err)
			}
			results[i] = res
		}(i, p)
	}
	wg.Wait()
	for i, res := range results {
		if res == nil {
			continue
		}
		label := fmt.Sprintf("project %d (edited %s)", i, names[i])
		checkColdPairing(t, label, res, opts)
		if viewJSON(t, res) != viewJSON(t, coldTree(t, tr, editors[i].sources(), opts)) {
			t.Errorf("%s: output differs from a cold run", label)
		}
		if i < 2 && spanCounter(t, tracers[i], "pair", "pairings_reused") == 0 {
			t.Errorf("%s: reused no pairing from the shared record", label)
		}
	}
}

var (
	fuzzPairingOnce sync.Once
	fuzzPairingTree *sitegen.Tree
)

// FuzzIncrementalPairing runs a random edit sequence over a 72-file tree,
// whose sites fill more than two record pages, plus the pairing fixtures:
// each input byte picks a file and an edit kind (a new call among them,
// which misses the depth-1 cutoff, and a barrier's removal, which moves
// the later sites down), and every fourth byte also flips
// MinSharedObjects, the generic filter, InterprocDepth between 0 and 1,
// CheckOnce or the MinConfidence gate. After every edit the warm pairing
// must equal a cold PairSites, and the warm -json output a cold
// analysis's.
func FuzzIncrementalPairing(f *testing.F) {
	for _, seed := range []string{"\x00\x05\x0a", "\x01\x02\x03\x04", "\x13\x27\x3b\x4f\x63", "\xff\x00\xff\x00", "\x05\x0b\x11\x02\x17\x1d", "\x07\x0e\x15\x08\x1c", "\x1c\x22\x29\x22", "\x06\x0d\x14\x1b"} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 12 {
			ops = ops[:12]
		}
		fuzzPairingOnce.Do(func() { fuzzPairingTree = sitegen.GenerateTree(sitegen.DefaultTreeSpec(72, 3)) })
		p := ofence.NewProject()
		loadTree(p, fuzzPairingTree)
		fix := pairingFixtures()
		p.AddSources(fix)
		var srcs []ofence.SourceFile
		for _, fl := range fuzzPairingTree.Files {
			srcs = append(srcs, ofence.SourceFile{Name: fl.Name, Src: fl.Src})
		}
		ed := newPairingEditor(append(fix, srcs...))
		opts := ofence.DefaultOptions()
		opts.Workers = 2
		res := mustAnalyze(t, p, opts)
		rng := rand.New(rand.NewSource(int64(len(ops))))
		for step, b := range ops {
			if step%4 == 3 {
				switch b % 5 {
				case 0:
					opts.MinSharedObjects = 3 - opts.MinSharedObjects
				case 1:
					if len(opts.GenericStructs) > 0 {
						opts.GenericStructs = nil
					} else {
						opts.GenericStructs = ofence.DefaultOptions().GenericStructs
					}
				case 2:
					opts.InterprocDepth = 1 - opts.InterprocDepth
				case 3:
					opts.CheckOnce = !opts.CheckOnce
				default:
					opts.MinConfidence = rank.DefaultThreshold - opts.MinConfidence
				}
			}
			// b/7 runs up to 36: 0..3 pick a pairing fixture (they come
			// first in ed.names), 4..36 one of 33 tree files, shifted by 33
			// more on the second and third op of every three, so that each
			// tree file can be picked.
			name := ed.names[int(b/7)]
			if f := len(fix); int(b/7) >= f {
				name = ed.names[f+(int(b/7)-f+33*(step%3))%len(srcs)]
			}
			kind := ed.edit(t, rng, step, int(b%7), name, res)
			p.ReplaceSource(name, ed.cur[name])
			res = mustAnalyze(t, p, opts)
			label := fmt.Sprintf("op %d (%s edit of %s, depth %d)", step, kind, name, opts.InterprocDepth)
			checkColdPairing(t, label, res, opts)
			if viewJSON(t, res) != viewJSON(t, coldTree(t, fuzzPairingTree, ed.sources(), opts)) {
				t.Fatalf("%s: warm output differs from a cold analysis", label)
			}
		}
	})
}
