// observe.go derives, from a linked graph and the inferred kinds, what
// each file's cross-file linearization reads besides the file's own
// tokens: the key the interprocedural extraction is cached under. It
// mirrors the splice rule of cfg.Linearize: a call that is a whole
// statement, to a name other than the enclosing function's, splices the
// definition the enclosing body's file binds the name to — a definition
// its symbol table holds while same-file levels remain (Func.Visible),
// else the one Resolve finds while cross-file levels remain.
package callgraph

import (
	"slices"

	"ofence/internal/memmodel"
)

// Observations hold, per file in link order, what extraction at one pair
// of depth budgets observes: a digest of every call name the
// linearization reaches — the name, its inferred kind, how it resolves
// ("unresolved" included) and the defining file of each splice — and the
// definitions it splices, whose fingerprints Key adds. Both derive from
// the graph and the kinds alone, so they hold for as long as those do.
type Observations struct {
	// Inline and Depth are the same-file and cross-file budgets.
	Inline, Depth int
	digest        []string
	reach         [][]*Node
	// readers[j] lists, ascending, the files whose keys read a
	// fingerprint of file j: those whose reach holds one of its nodes.
	readers [][]int32
}

// defObs is what one definition's linearization at one budget observes
// beyond its own body.
type defObs struct {
	digest string
	reach  []*Node
}

// observer memoizes defObs per (definition, budget). Calls inside a
// spliced body bind in the body's own file, so a definition observes the
// same at a given budget wherever it is spliced.
type observer struct {
	g     *Graph
	kinds map[string]memmodel.BarrierKind
	depth int
	memo  [][]*defObs
}

// Observe computes the observations of every file of g at the same-file
// budget inline and the cross-file budget depth, under the inferred kinds
// by name.
func (g *Graph) Observe(kinds map[string]memmodel.BarrierKind, inline, depth int) *Observations {
	w := &observer{g: g, kinds: kinds, depth: depth, memo: make([][]*defObs, (inline+1)*(depth+1))}
	for i := range w.memo {
		w.memo[i] = make([]*defObs, len(g.Nodes))
	}
	o := &Observations{
		Inline: inline, Depth: depth,
		digest: make([]string, len(g.files)), reach: make([][]*Node, len(g.files)), readers: make([][]int32, len(g.files)),
	}
	nodes := g.Nodes // in file order
	for i := range g.files {
		end := 0
		for end < len(nodes) && nodes[end].fileIdx == i {
			end++
		}
		var e enc
		for _, n := range nodes[:end] {
			d := w.def(n, inline, depth)
			e = e.str(n.Name()).str(d.digest)
			o.reach[i] = addReach(o.reach[i], d.reach...)
		}
		o.digest[i] = digest(e)
		for _, n := range o.reach[i] {
			// Files are visited in order, so i is the largest reader yet.
			if r := o.readers[n.fileIdx]; len(r) == 0 || r[len(r)-1] != int32(i) {
				o.readers[n.fileIdx] = append(r, int32(i))
			}
		}
		nodes = nodes[end:]
	}
	return o
}

// Readers returns, ascending, the files whose keys read a fingerprint of
// the j-th file: the keys a change of its summary can move. The slice is
// shared; callers must not modify it.
func (o *Observations) Readers(j int) []int32 { return o.readers[j] }

// Key returns the observed-input key of the i-th file: its digest plus
// the fingerprint, in sums, of every definition it splices. sums are the
// current summaries in link order; they may differ from the ones the
// graph was linked from in fingerprints only.
func (o *Observations) Key(i int, sums []*Summary) string {
	// Most keys fit the stack buffer, so building one allocates only the
	// digest string.
	var buf [512]byte
	e := enc(buf[:0]).str(o.digest[i])
	for _, n := range o.reach[i] {
		e = e.str(sums[n.fileIdx].Funcs[n.Ord].Fingerprint)
	}
	return digest(e)
}

// def returns what n's linearization with inline same-file and depth
// cross-file levels left observes: per named call site, the name and its
// inferred kind; per splice, how the name bound, the defining file and
// the callee's own observations. Budgets drop on every splice, so the
// recursion ends.
func (w *observer) def(n *Node, inline, depth int) *defObs {
	slot := &w.memo[inline*(w.depth+1)+depth][n.ID]
	if *slot != nil {
		return *slot
	}
	var e enc
	var reach []*Node
	for i := range n.Func.Calls {
		c := &n.Func.Calls[i]
		if c.Name == "" {
			continue
		}
		e = e.str(c.Name).num(int(w.kinds[c.Name]))
		if !c.Stmt || c.Name == n.Name() {
			e = append(e, '-')
			continue
		}
		var callee *Node
		ni, nd := inline, depth
		if inline > 0 {
			if l := w.g.local[n.File][c.Name]; l != nil && l.Func.Visible {
				callee, ni, e = l, inline-1, append(e, 's')
			}
		}
		if callee == nil && depth > 0 {
			if callee = w.g.Resolve(n.File, c.Name); callee == nil {
				e = append(e, '?') // unresolved
				continue
			}
			nd, e = depth-1, append(e, 'x')
		}
		if callee == nil {
			e = append(e, '-')
			continue
		}
		sub := w.def(callee, ni, nd)
		e = e.str(callee.File).str(sub.digest)
		reach = addReach(addReach(reach, callee), sub.reach...)
	}
	*slot = &defObs{digest: digest(e), reach: reach}
	return *slot
}

// addReach appends the nodes not yet in reach, keeping first-seen order.
func addReach(reach []*Node, nodes ...*Node) []*Node {
	for _, n := range nodes {
		if !slices.Contains(reach, n) {
			reach = append(reach, n)
		}
	}
	return reach
}
