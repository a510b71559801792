package ofence

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"ofence/internal/callgraph"
	"ofence/internal/cast"
	"ofence/internal/cfg"
	"ofence/internal/ctypes"
	"ofence/internal/semprop"
)

// extractKeys returns each file's extract key inputs after a run: its
// preHash and its observed-input key.
func extractKeys(p *Project) map[string]string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := map[string]string{}
	for _, fu := range p.files {
		out[fu.Name] = fu.art.preHash + "|" + fu.art.extractObserved
	}
	return out
}

// observedOracle renders, per file, everything its extraction reads,
// straight from the ASTs and independently of the summaries: the file's
// own tokens (preHash); every unit of its functions' linearized streams,
// spliced ones included, with each node's kind, position and text; the
// signature and position of each spliced definition; and the inferred
// kind of every call name in a unit. Resolution follows C linkage from
// the splicing body's own file, and the kinds come from a fresh inference.
func observedOracle(t *testing.T, p *Project, opts Options) map[string]string {
	t.Helper()
	files := p.Files()
	local := map[string]map[string]*cast.FuncDecl{}
	tables := map[string]*ctypes.Table{}
	var cgf []callgraph.File
	for _, fu := range files {
		local[fu.Name] = map[string]*cast.FuncDecl{}
		for _, fn := range fu.AST.Functions() {
			local[fu.Name][fn.Name] = fn
		}
		tables[fu.Name] = ctypes.NewTable(fu.AST)
		cgf = append(cgf, callgraph.File{Name: fu.Name, AST: fu.AST})
	}
	kinds := semprop.Infer(callgraph.BuildParallel(cgf, 1), semprop.Options{}).NameKinds()
	var resolver func(file string) cfg.Resolver
	resolver = func(file string) cfg.Resolver {
		return func(name string) cfg.Def {
			if fn := local[file][name]; fn != nil {
				return cfg.Def{Fn: fn, Table: tables[file], Resolve: resolver(file)}
			}
			for _, fu := range files {
				for _, fn := range fu.AST.Functions() {
					if fn.Name == name && !fn.Static {
						return cfg.Def{Fn: fn, Table: tables[fu.Name], Resolve: resolver(fu.Name)}
					}
				}
			}
			return cfg.Def{}
		}
	}
	out := map[string]string{}
	for _, fu := range files {
		var b strings.Builder
		b.WriteString(fu.art.preHash)
		for _, fn := range fu.AST.Functions() {
			units := cfg.Linearize(fn, cfg.LinearizeOptions{
				Table: tables[fu.Name], InlineDepth: opts.Access.InlineDepth, MaxUnits: opts.Access.MaxUnits,
				Resolve: resolver(fu.Name), ResolveDepth: opts.InterprocDepth,
			})
			for _, u := range units {
				fmt.Fprintf(&b, "\n%d %d %q %t @%v", u.Index, u.Kind, u.InlinedFrom, u.InlinedCall, u.Pos)
				if u.InlinedFrom != "" {
					sig := *u.Fn
					sig.Body = nil
					fmt.Fprintf(&b, " [%v %s]", u.Fn.Position, cast.Print(&sig))
				}
				root := u.Root()
				if root == nil {
					continue
				}
				cast.Walk(root, func(n cast.Node) bool {
					fmt.Fprintf(&b, " %T@%v", n, n.Pos())
					if call, ok := n.(*cast.CallExpr); ok && call.FunName() != "" {
						fmt.Fprintf(&b, "=%v", kinds[call.FunName()])
					}
					return true
				})
				b.WriteString(" " + cast.Print(root))
			}
		}
		out[fu.Name] = b.String()
	}
	return out
}

// changedFiles lists the files present in both maps whose values differ.
func changedFiles(before, after map[string]string) []string {
	var out []string
	for name, v := range before {
		if w, ok := after[name]; ok && w != v {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// keyStep analyzes p and checks that the extract keys changed, relative
// to the previous keys, for exactly the files whose observed inputs
// changed, and that the derived keys and dedup equal their from-scratch
// references (checkDerived). It returns the new keys, oracle and changed set.
func keyStep(t *testing.T, p *Project, opts Options, keys, oracle map[string]string, what string) (map[string]string, map[string]string, []string) {
	t.Helper()
	mustAnalyze(t, p, opts)
	checkDerived(t, p, what)
	k, o := extractKeys(p), observedOracle(t, p, opts)
	if keys != nil {
		gotK, gotO := changedFiles(keys, k), changedFiles(oracle, o)
		if strings.Join(gotK, ",") != strings.Join(gotO, ",") {
			t.Errorf("%s: keys changed for %v, observed inputs for %v", what, gotK, gotO)
		}
		return k, o, gotK
	}
	return k, o, nil
}

const keyFixtureS = "struct s { int f0; int f1; };\n"

// keyFixture is a.c splicing b.c's b_mid at depth 1, b_mid calling c.c's
// c_leaf, b_other reached only through an expression call from d.c, and
// c_solo calling the undefined ext_fn.
func keyFixture() map[string]string {
	return map[string]string{
		"a.c": keyFixtureS + "void a_top(struct s *p) { p->f0 = 1; b_mid(p); p->f1 = 2; }\n",
		"b.c": keyFixtureS + "void b_mid(struct s *p) { p->f0 = 3; c_leaf(p); }\nvoid b_other(struct s *p) { p->f1 = 4; }\n",
		"c.c": keyFixtureS + "void c_leaf(struct s *p) { p->f1 = 5; }\nvoid c_solo(struct s *p) { p->f0 = 6; ext_fn(p); }\n",
		"d.c": keyFixtureS + "void d_user(struct s *p) { if (b_other(p)) p->f0 = 7; }\n",
	}
}

// TestExtractKeyTracksObservedInputs checks that a file's extract key
// changes exactly when something its extraction observes changes: on a
// fixture, one edit of each kind with the expected set of re-keyed files
// spelled out, and over random projects, seeded edit sequences at depths
// 1 and 2 checked against observedOracle. Dropping the inferred kinds or
// the resolution outcome from the key fails it: barrier edits change
// kinds that non-spliced calls observe, and removed, renamed and new
// definitions change only what a name resolves to.
func TestExtractKeyTracksObservedInputs(t *testing.T) {
	opts := DefaultOptions()
	opts.InterprocDepth = 1
	edits := []struct {
		name, file, src string
		want            []string
	}{
		{"literal inside a spliced body", "b.c",
			keyFixtureS + "void b_mid(struct s *p) { p->f0 = 8; c_leaf(p); }\nvoid b_other(struct s *p) { p->f1 = 4; }\n",
			[]string{"a.c", "b.c"}},
		{"literal outside every spliced body", "b.c",
			keyFixtureS + "void b_mid(struct s *p) { p->f0 = 3; c_leaf(p); }\nvoid b_other(struct s *p) { p->f1 = 9; }\n",
			[]string{"b.c"}},
		{"barrier added in a callee", "c.c",
			keyFixtureS + "void c_leaf(struct s *p) { p->f1 = 5; smp_mb(); }\nvoid c_solo(struct s *p) { p->f0 = 6; ext_fn(p); }\n",
			[]string{"a.c", "b.c", "c.c"}},
		{"new callee", "b.c",
			keyFixtureS + "void b_mid(struct s *p) { p->f0 = 3; c_leaf(p); c_solo(p); }\nvoid b_other(struct s *p) { p->f1 = 4; }\n",
			[]string{"a.c", "b.c"}},
		{"removed definition", "c.c",
			keyFixtureS + "void c_solo(struct s *p) { p->f0 = 6; ext_fn(p); }\n",
			[]string{"b.c", "c.c"}},
		{"rename", "b.c",
			keyFixtureS + "void b_mid2(struct s *p) { p->f0 = 3; c_leaf(p); }\nvoid b_other(struct s *p) { p->f1 = 4; }\n",
			[]string{"a.c", "b.c"}},
		{"new external definition for an unresolved name", "e.c",
			keyFixtureS + "void ext_fn(struct s *p) { smp_mb(); }\n",
			[]string{"c.c"}},
	}
	for _, e := range edits {
		t.Run(e.name, func(t *testing.T) {
			p := NewProject()
			fx := keyFixture()
			for _, name := range []string{"a.c", "b.c", "c.c", "d.c"} {
				p.AddSource(name, fx[name])
			}
			keys, oracle, _ := keyStep(t, p, opts, nil, nil, e.name)
			if _, ok := fx[e.file]; ok {
				p.ReplaceSource(e.file, e.src)
			} else {
				p.AddSource(e.file, e.src)
			}
			_, _, got := keyStep(t, p, opts, keys, oracle, e.name)
			if strings.Join(got, ",") != strings.Join(e.want, ",") {
				t.Errorf("re-keyed %v, want %v", got, e.want)
			}
		})
	}

	for _, depth := range []int{1, 2} {
		opts.InterprocDepth = depth
		for seed := int64(1); seed <= 30; seed++ {
			rng := rand.New(rand.NewSource(seed))
			proj := randomKeyProject(rng)
			p := NewProject()
			for _, f := range proj.files {
				p.AddSource(f.name, proj.render(f))
			}
			keys, oracle, _ := keyStep(t, p, opts, nil, nil, "setup")
			for step := 0; step < 8; step++ {
				what, f := proj.edit(rng)
				what = fmt.Sprintf("depth %d seed %d step %d: %s in %s", depth, seed, step, what, f.name)
				if p.ReplaceSource(f.name, proj.render(f)) == nil {
					p.AddSource(f.name, proj.render(f))
				}
				keys, oracle, _ = keyStep(t, p, opts, keys, oracle, what)
			}
		}
	}
}

// keyProject is a random C project model: files of functions whose bodies
// store literals, call other functions as statements or inside a
// condition, and execute barriers. Names collide across files, statics
// shadow, and some callees are never defined.
type keyProject struct {
	files []*keyFile
	fresh int
}

type keyFile struct {
	name string
	fns  []*keyFn
}

type keyFn struct {
	name   string
	static bool
	body   []keyStmt
}

// keyStmt is one statement: op 's' stores lit, 'c' calls arg as a
// statement, 'e' calls arg inside a condition, 'b' executes barrier arg.
type keyStmt struct {
	op  byte
	arg string
	lit int
}

var keyBarriers = []string{"smp_wmb", "smp_rmb", "smp_mb"}

func randomKeyProject(rng *rand.Rand) *keyProject {
	kp := &keyProject{}
	for i := 0; i < 2+rng.Intn(4); i++ {
		f := &keyFile{name: fmt.Sprintf("f%d.c", i)}
		for j := 0; j < 1+rng.Intn(4); j++ {
			f.fns = append(f.fns, &keyFn{name: fmt.Sprintf("fn%d", rng.Intn(8)), static: rng.Intn(4) == 0, body: kp.randomBody(rng)})
		}
		kp.files = append(kp.files, f)
	}
	return kp
}

func (kp *keyProject) randomStmt(rng *rand.Rand) keyStmt {
	callee := fmt.Sprintf("fn%d", rng.Intn(8))
	if rng.Intn(4) == 0 {
		callee = fmt.Sprintf("ext%d", rng.Intn(3))
	}
	switch rng.Intn(5) {
	case 0, 1:
		return keyStmt{op: 's', lit: rng.Intn(100)}
	case 2:
		return keyStmt{op: 'c', arg: callee}
	case 3:
		return keyStmt{op: 'e', arg: callee, lit: rng.Intn(100)}
	}
	return keyStmt{op: 'b', arg: keyBarriers[rng.Intn(len(keyBarriers))]}
}

func (kp *keyProject) randomBody(rng *rand.Rand) []keyStmt {
	var body []keyStmt
	for i := 0; i < 1+rng.Intn(5); i++ {
		body = append(body, kp.randomStmt(rng))
	}
	return body
}

func (kp *keyProject) render(f *keyFile) string {
	var b strings.Builder
	b.WriteString(keyFixtureS)
	for _, fn := range f.fns {
		if fn.static {
			b.WriteString("static ")
		}
		fmt.Fprintf(&b, "void %s(struct s *p)\n{\n", fn.name)
		for _, st := range fn.body {
			switch st.op {
			case 's':
				fmt.Fprintf(&b, "\tp->f0 = %d;\n", st.lit)
			case 'c':
				fmt.Fprintf(&b, "\t%s(p);\n", st.arg)
			case 'e':
				fmt.Fprintf(&b, "\tif (%s(p))\n\t\tp->f1 = %d;\n", st.arg, st.lit)
			case 'b':
				fmt.Fprintf(&b, "\t%s();\n", st.arg)
			}
		}
		b.WriteString("}\n")
	}
	return b.String()
}

// edit applies one random edit of the kinds TestExtractKeyTracksObservedInputs
// covers and returns its kind and the file it changed (possibly new).
func (kp *keyProject) edit(rng *rand.Rand) (string, *keyFile) {
	f := kp.files[rng.Intn(len(kp.files))]
	if len(f.fns) == 0 {
		f.fns = append(f.fns, &keyFn{name: "fn0", body: kp.randomBody(rng)})
		return "new definition", f
	}
	fn := f.fns[rng.Intn(len(f.fns))]
	at := rng.Intn(len(fn.body) + 1)
	insert := func(st keyStmt) {
		fn.body = append(fn.body[:at], append([]keyStmt{st}, fn.body[at:]...)...)
	}
	switch rng.Intn(6) {
	case 0:
		for i := range fn.body {
			if fn.body[i].op == 's' || fn.body[i].op == 'e' {
				fn.body[i].lit = 100 + rng.Intn(100)
				return "literal", f
			}
		}
		insert(keyStmt{op: 's', lit: rng.Intn(100)})
		return "literal statement", f
	case 1:
		insert(keyStmt{op: 'b', arg: keyBarriers[rng.Intn(len(keyBarriers))]})
		return "barrier", f
	case 2:
		insert(keyStmt{op: 'c', arg: fmt.Sprintf("fn%d", rng.Intn(8))})
		return "new callee", f
	case 3:
		i := rng.Intn(len(f.fns))
		f.fns = append(f.fns[:i], f.fns[i+1:]...)
		return "removed definition", f
	case 4:
		kp.fresh++
		fn.name = fmt.Sprintf("fn%d", rng.Intn(8))
		if rng.Intn(2) == 0 {
			fn.name = fmt.Sprintf("renamed%d", kp.fresh)
		}
		return "rename", f
	}
	kp.fresh++
	nf := &keyFile{name: fmt.Sprintf("x%d.c", kp.fresh)}
	nf.fns = []*keyFn{{name: fmt.Sprintf("ext%d", rng.Intn(3)), body: kp.randomBody(rng)}}
	kp.files = append(kp.files, nf)
	return "new external definition", nf
}
