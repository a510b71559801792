// Package cfg builds per-function control flow graphs and the linearized
// statement stream that OFence's distance metric is defined over.
//
// The paper bounds barrier effects using "number of statements" distances
// and explores one level of callees defined in the same file. Linearize
// produces the statement units in source order (the distance domain) with
// optional one-level inlining of same-file callees; Build produces a basic
// block graph with control-flow edges for analyses that need reachability.
package cfg

import (
	"fmt"

	"ofence/internal/cast"
	"ofence/internal/ctoken"
	"ofence/internal/ctypes"
)

// UnitKind classifies a linearized unit.
type UnitKind int

const (
	// UnitStmt is an executable simple statement (expression, declaration
	// with initializer, return value computation...).
	UnitStmt UnitKind = iota
	// UnitCond is the condition expression of an if/while/do/for/switch.
	UnitCond
)

// Unit is one element of the linearized statement stream. Distances in the
// analysis are differences between unit indices.
type Unit struct {
	// Index is the position in the linearized order, starting at 0.
	Index int
	// Kind distinguishes plain statements from branch conditions.
	Kind UnitKind
	// Stmt is set for UnitStmt units.
	Stmt cast.Stmt
	// Expr is set for UnitCond units (and for the evaluated expression of
	// UnitStmt units when available).
	Expr cast.Expr
	// Fn is the function whose body lexically contains the unit. For
	// inlined units this is the callee.
	Fn *cast.FuncDecl
	// InlinedFrom is the name of the callee this unit was spliced from, or
	// "" for units of the root function.
	InlinedFrom string
	// InlinedCall marks call-statement units whose callee body was spliced
	// into the stream directly after this unit.
	InlinedCall bool
	// Pos is the source position.
	Pos ctoken.Position
}

// String renders the unit for diagnostics.
func (u *Unit) String() string {
	tag := "stmt"
	if u.Kind == UnitCond {
		tag = "cond"
	}
	in := ""
	if u.InlinedFrom != "" {
		in = " (inlined " + u.InlinedFrom + ")"
	}
	return fmt.Sprintf("#%d %s @%s%s", u.Index, tag, u.Pos, in)
}

// Root returns the node holding the unit's expressions: Expr for conditions,
// Stmt otherwise.
func (u *Unit) Root() cast.Node {
	if u.Kind == UnitCond {
		return u.Expr
	}
	return u.Stmt
}

// LinearizeOptions controls linearization.
type LinearizeOptions struct {
	// Table enables one-level inlining of callees with bodies found in the
	// table (same file or merged headers). Nil disables inlining.
	Table *ctypes.Table
	// InlineDepth is how many levels of callees to splice. The paper uses 1.
	InlineDepth int
	// MaxUnits caps the stream length as a safety valve for pathological
	// functions; 0 means no cap.
	MaxUnits int
	// Resolve maps a callee name to a definition not in Table — the
	// interprocedural mode's cross-file call-graph lookup. Nil disables.
	// Cross-file splices consume ResolveDepth, a budget separate from
	// InlineDepth, so enabling interprocedural exploration never changes the
	// paper-faithful same-file behavior.
	Resolve Resolver
	// ResolveDepth is how many levels of cross-file callees to splice via
	// Resolve; 0 disables cross-file inlining.
	ResolveDepth int
}

// Resolver maps a callee name to its cross-file definition, or to the zero
// Def when no definition is visible.
type Resolver func(name string) Def

// Def is a function definition with the visibility of its own file: calls
// inside its spliced body bind through Table and Resolve, never through
// those of the file it is spliced into.
type Def struct {
	Fn      *cast.FuncDecl
	Table   *ctypes.Table
	Resolve Resolver
}

// Linearize flattens fn's body into the ordered unit stream.
func Linearize(fn *cast.FuncDecl, opts LinearizeOptions) []*Unit {
	ln := &linearizer{opts: opts}
	ln.fn(Def{Fn: fn, Table: opts.Table, Resolve: opts.Resolve}, "", opts.InlineDepth, opts.ResolveDepth)
	for i, u := range ln.units {
		u.Index = i
	}
	return ln.units
}

type linearizer struct {
	opts  LinearizeOptions
	units []*Unit
	// slab batch-allocates Units so linearizing a function does not heap-
	// allocate per statement. Full slabs are abandoned to the units pointing
	// into them (same lifetime), so handing out interior pointers is safe.
	slab []Unit
	full bool
}

func (l *linearizer) add(u *Unit) {
	if l.opts.MaxUnits > 0 && len(l.units) >= l.opts.MaxUnits {
		l.full = true
		return
	}
	l.units = append(l.units, u)
}

// newUnit allocates a Unit from the slab and adds it to the stream,
// returning it so call sites can set InlinedCall after the fact.
func (l *linearizer) newUnit(kind UnitKind, stmt cast.Stmt, expr cast.Expr, fn *cast.FuncDecl, inlinedFrom string, pos ctoken.Position) *Unit {
	if len(l.slab) == cap(l.slab) {
		n := cap(l.slab) * 2
		if n < 32 {
			n = 32
		}
		if n > 1024 {
			n = 1024
		}
		l.slab = make([]Unit, 0, n)
	}
	l.slab = l.slab[:len(l.slab)+1]
	u := &l.slab[len(l.slab)-1]
	u.Kind, u.Stmt, u.Expr, u.Fn, u.InlinedFrom, u.Pos = kind, stmt, expr, fn, inlinedFrom, pos
	l.add(u)
	return u
}

func (l *linearizer) fn(d Def, inlinedFrom string, depth, rdepth int) {
	if d.Fn.Body == nil || l.full {
		return
	}
	l.block(d.Fn.Body, d, inlinedFrom, depth, rdepth)
}

func (l *linearizer) block(b *cast.BlockStmt, d Def, inlinedFrom string, depth, rdepth int) {
	for _, s := range b.Stmts {
		l.stmt(s, d, inlinedFrom, depth, rdepth)
		if l.full {
			return
		}
	}
}

// maybeInline splices the body of a callee when the statement is a plain
// call and inlining is enabled. Same-table (same-file) callees consume
// depth; cross-file callees found via Resolve consume rdepth. The table is
// consulted first so interprocedural mode reproduces the paper's same-file
// behavior exactly and only adds splices the one-level mode could not see.
// Both lookups use the visibility of d's file, so a call inside a body
// spliced from another file binds as it does in that file.
func (l *linearizer) maybeInline(e cast.Expr, d Def, depth, rdepth int) bool {
	call, ok := e.(*cast.CallExpr)
	if !ok {
		return false
	}
	name := call.FunName()
	if name == "" || name == d.Fn.Name {
		return false
	}
	if depth > 0 && d.Table != nil {
		if callee := d.Table.Func(name); callee != nil && callee.Body != nil {
			l.fn(Def{Fn: callee, Table: d.Table, Resolve: d.Resolve}, name, depth-1, rdepth)
			return true
		}
	}
	if rdepth > 0 && d.Resolve != nil {
		if callee := d.Resolve(name); callee.Fn != nil && callee.Fn.Body != nil {
			l.fn(callee, name, depth, rdepth-1)
			return true
		}
	}
	return false
}

func (l *linearizer) stmt(s cast.Stmt, d Def, inlinedFrom string, depth, rdepth int) {
	if l.full {
		return
	}
	fn := d.Fn
	switch x := s.(type) {
	case *cast.BlockStmt:
		l.block(x, d, inlinedFrom, depth, rdepth)
	case *cast.ExprStmt:
		u := l.newUnit(UnitStmt, x, x.X, fn, inlinedFrom, x.Position)
		if l.maybeInline(x.X, d, depth, rdepth) {
			u.InlinedCall = true
		}
	case *cast.DeclStmt:
		u := l.newUnit(UnitStmt, x, x.Init, fn, inlinedFrom, x.Position)
		if x.Init != nil && l.maybeInline(x.Init, d, depth, rdepth) {
			u.InlinedCall = true
		}
	case *cast.IfStmt:
		l.newUnit(UnitCond, x, x.Cond, fn, inlinedFrom, x.Position)
		l.stmt(x.Then, d, inlinedFrom, depth, rdepth)
		if x.Else != nil {
			l.stmt(x.Else, d, inlinedFrom, depth, rdepth)
		}
	case *cast.ForStmt:
		if x.Init != nil {
			l.stmt(x.Init, d, inlinedFrom, depth, rdepth)
		}
		if x.Cond != nil {
			l.newUnit(UnitCond, x, x.Cond, fn, inlinedFrom, x.Position)
		}
		l.stmt(x.Body, d, inlinedFrom, depth, rdepth)
		if x.Post != nil {
			l.newUnit(UnitStmt, x, x.Post, fn, inlinedFrom, x.Position)
		}
	case *cast.WhileStmt:
		l.newUnit(UnitCond, x, x.Cond, fn, inlinedFrom, x.Position)
		l.stmt(x.Body, d, inlinedFrom, depth, rdepth)
	case *cast.DoWhileStmt:
		l.stmt(x.Body, d, inlinedFrom, depth, rdepth)
		l.newUnit(UnitCond, x, x.Cond, fn, inlinedFrom, x.Position)
	case *cast.SwitchStmt:
		l.newUnit(UnitCond, x, x.Tag, fn, inlinedFrom, x.Position)
		l.stmt(x.Body, d, inlinedFrom, depth, rdepth)
	case *cast.ReturnStmt:
		l.newUnit(UnitStmt, x, x.Value, fn, inlinedFrom, x.Position)
	case *cast.CaseStmt, *cast.LabelStmt, *cast.EmptyStmt,
		*cast.BreakStmt, *cast.ContinueStmt, *cast.GotoStmt, *cast.AsmStmt:
		// Control labels and jumps carry no memory accesses; they do not
		// count as statements for the distance metric.
	}
}

// ---------------------------------------------------------------------------
// Basic block graph

// Block is a maximal straight-line sequence of units.
type Block struct {
	ID    int
	Units []*Unit
	Succs []*Block
}

// Graph is the CFG of one function.
type Graph struct {
	Fn     *cast.FuncDecl
	Blocks []*Block
	// Units is the linearized stream (without inlining) in source order.
	Units []*Unit
}

// Entry returns the entry block (nil for empty functions).
func (g *Graph) Entry() *Block {
	if len(g.Blocks) == 0 {
		return nil
	}
	return g.Blocks[0]
}

// Build constructs the CFG of fn. The graph shares Unit values with the
// linearization (indices are stable across both views).
func Build(fn *cast.FuncDecl) *Graph {
	g := &Graph{Fn: fn}
	g.Units = Linearize(fn, LinearizeOptions{})
	b := &builder{g: g, labels: map[string]*Block{}, gotos: map[*Block]string{}}
	entry := b.newBlock()
	exit := b.build(fn.Body, entry, ctx{})
	_ = exit
	b.resolveGotos()
	b.indexUnits()
	return g
}

type ctx struct {
	brk  *Block // break target
	cont *Block // continue target
}

type builder struct {
	g       *Graph
	labels  map[string]*Block
	gotos   map[*Block]string
	unitIdx int
}

func (b *builder) newBlock() *Block {
	blk := &Block{ID: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func link(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

// takeUnit pulls the next pre-linearized unit (they were produced in the
// same order the builder walks statements).
func (b *builder) takeUnit() *Unit {
	if b.unitIdx < len(b.g.Units) {
		u := b.g.Units[b.unitIdx]
		b.unitIdx++
		return u
	}
	return nil
}

// build wires stmt into the graph starting at cur; returns the block control
// falls out of (nil when control never falls through, e.g. after return).
func (b *builder) build(s cast.Stmt, cur *Block, c ctx) *Block {
	if s == nil || cur == nil {
		return cur
	}
	switch x := s.(type) {
	case *cast.BlockStmt:
		for _, st := range x.Stmts {
			cur = b.build(st, cur, c)
			if cur == nil {
				// Unreachable code after return/goto still needs blocks for
				// labels; create a fresh floating block.
				cur = b.newBlock()
			}
		}
		return cur
	case *cast.ExprStmt, *cast.DeclStmt, *cast.ReturnStmt:
		if u := b.takeUnit(); u != nil {
			cur.Units = append(cur.Units, u)
		}
		if _, ret := s.(*cast.ReturnStmt); ret {
			return nil
		}
		return cur
	case *cast.IfStmt:
		if u := b.takeUnit(); u != nil {
			cur.Units = append(cur.Units, u)
		}
		thenB := b.newBlock()
		link(cur, thenB)
		thenEnd := b.build(x.Then, thenB, c)
		var elseEnd *Block
		join := (*Block)(nil)
		if x.Else != nil {
			elseB := b.newBlock()
			link(cur, elseB)
			elseEnd = b.build(x.Else, elseB, c)
		}
		join = b.newBlock()
		if x.Else == nil {
			link(cur, join)
		}
		link(thenEnd, join)
		link(elseEnd, join)
		return join
	case *cast.ForStmt:
		if x.Init != nil {
			cur = b.build(x.Init, cur, c)
		}
		head := b.newBlock()
		link(cur, head)
		if x.Cond != nil {
			if u := b.takeUnit(); u != nil {
				head.Units = append(head.Units, u)
			}
		}
		body := b.newBlock()
		after := b.newBlock()
		link(head, body)
		if x.Cond != nil {
			link(head, after)
		}
		post := b.newBlock()
		bodyEnd := b.build(x.Body, body, ctx{brk: after, cont: post})
		link(bodyEnd, post)
		if x.Post != nil {
			if u := b.takeUnit(); u != nil {
				post.Units = append(post.Units, u)
			}
		}
		link(post, head)
		return after
	case *cast.WhileStmt:
		head := b.newBlock()
		link(cur, head)
		if u := b.takeUnit(); u != nil {
			head.Units = append(head.Units, u)
		}
		body := b.newBlock()
		after := b.newBlock()
		link(head, body)
		link(head, after)
		bodyEnd := b.build(x.Body, body, ctx{brk: after, cont: head})
		link(bodyEnd, head)
		return after
	case *cast.DoWhileStmt:
		body := b.newBlock()
		link(cur, body)
		after := b.newBlock()
		condB := b.newBlock()
		bodyEnd := b.build(x.Body, body, ctx{brk: after, cont: condB})
		link(bodyEnd, condB)
		if u := b.takeUnit(); u != nil {
			condB.Units = append(condB.Units, u)
		}
		link(condB, body)
		link(condB, after)
		return after
	case *cast.SwitchStmt:
		if u := b.takeUnit(); u != nil {
			cur.Units = append(cur.Units, u)
		}
		after := b.newBlock()
		// Each case label starts a block reachable from the switch head;
		// fallthrough links consecutive case bodies.
		inner := ctx{brk: after, cont: c.cont}
		caseB := (*Block)(nil)
		if x.Body != nil {
			for _, st := range x.Body.Stmts {
				if _, isCase := st.(*cast.CaseStmt); isCase {
					nb := b.newBlock()
					link(cur, nb)
					link(caseB, nb) // fallthrough
					caseB = nb
					continue
				}
				if caseB == nil {
					caseB = b.newBlock()
					link(cur, caseB)
				}
				caseB = b.build(st, caseB, inner)
			}
		}
		link(caseB, after)
		link(cur, after) // no default: switch may skip all cases
		return after
	case *cast.BreakStmt:
		link(cur, c.brk)
		return nil
	case *cast.ContinueStmt:
		link(cur, c.cont)
		return nil
	case *cast.GotoStmt:
		b.gotos[cur] = x.Label
		return nil
	case *cast.LabelStmt:
		lb := b.newBlock()
		link(cur, lb)
		b.labels[x.Name] = lb
		return lb
	case *cast.CaseStmt, *cast.EmptyStmt, *cast.AsmStmt:
		return cur
	}
	return cur
}

func (b *builder) resolveGotos() {
	for from, label := range b.gotos {
		if to, ok := b.labels[label]; ok {
			link(from, to)
		}
	}
}

func (b *builder) indexUnits() {
	// Units already carry indices from Linearize; nothing to renumber, but
	// verify monotone order within blocks for internal consistency.
	for _, blk := range b.g.Blocks {
		for i := 1; i < len(blk.Units); i++ {
			if blk.Units[i].Index < blk.Units[i-1].Index {
				// Should be impossible by construction.
				panic("cfg: unit order violated within block")
			}
		}
	}
}

// Reachable returns the set of block IDs reachable from the entry.
func (g *Graph) Reachable() map[int]bool {
	seen := map[int]bool{}
	var dfs func(*Block)
	dfs = func(b *Block) {
		if b == nil || seen[b.ID] {
			return
		}
		seen[b.ID] = true
		for _, s := range b.Succs {
			dfs(s)
		}
	}
	dfs(g.Entry())
	return seen
}
