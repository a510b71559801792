// summary.go reduces a parsed file to the AST-free Summary that Link and
// semprop.Infer read: a file's definitions, their call sites, their
// pointer stores and their local control flow. A summary holds no AST
// pointer, so it may outlive the tree it was taken from, and its Hash
// covers every field Link and Infer read: equal hashes link and infer
// identically.
package callgraph

import (
	"crypto/sha256"
	"encoding/binary"

	"ofence/internal/cast"
	"ofence/internal/cfg"
	"ofence/internal/memmodel"
)

// Summary is one file's contribution to the call graph and the inference.
type Summary struct {
	// File names the translation unit.
	File string
	// Funcs are the file's definitions in cast.File.Functions order.
	Funcs []Func
	// Stores are the file's pointer-store facts in discovery order: file-
	// scope initializers first, then each body's assignments and
	// initialized declarations.
	Stores []Store
	// Hash digests every field above except the fingerprints.
	Hash string
}

// Func summarizes one definition.
type Func struct {
	Name   string
	Static bool
	// Visible marks the definition the file's symbol table binds Name to
	// (ctypes.Table.Func): no later declaration of Name shadows it.
	Visible bool
	// Calls are the body's call sites in cast.Calls order.
	Calls []Call
	// Flow is the body's control flow as the inference reads it.
	Flow Flow
	// Fingerprint digests the declaration node by node: signature, body and
	// every node's position. It is the one field Hash leaves out, so a
	// literal edit changes the fingerprint and nothing else.
	Fingerprint string
}

// Call is one call site.
type Call struct {
	// Name is the callee identifier, "" for a call through an expression.
	Name string
	// Slot names the pointer slot of a call through an expression: the
	// variable or the final field of a field chain.
	Slot string
	// Field marks a call through a struct-field chain, which falls back to
	// the functions of positional initializer lists.
	Field bool
	// Stmt marks a call that is a whole statement: an expression statement
	// or a declaration's initializer, where linearization may splice the
	// callee's body.
	Stmt bool
	// Kind is the barrier kind the built-in catalogs give Name.
	Kind memmodel.BarrierKind
}

// Flow is one body's control-flow graph reduced to what the barrier
// dataflow reads.
type Flow struct {
	// Preds lists each block's predecessors; its length is the block count.
	Preds [][]int32
	// Exits are the blocks reachable from the entry with no successor.
	Exits []int32
	// Calls lists, per block, the ordinals in Func.Calls of the calls its
	// units evaluate.
	Calls [][]int32
}

// Store is one pointer-store fact: Ident may be stored into Slot.
type Store struct {
	Slot  string
	Ident string
	// Init marks an element of an initializer list.
	Init bool
}

// Summarize reduces f, the AST of the file named name, to its Summary. A
// nil AST (a parse failure) yields an empty summary.
func Summarize(name string, f *cast.File) *Summary {
	s := &Summary{File: name}
	if f == nil {
		s.Hash = s.hash()
		return s
	}
	last := map[string]*cast.FuncDecl{}
	for _, d := range f.Decls {
		switch x := d.(type) {
		case *cast.FuncDecl:
			last[x.Name] = x
		case *cast.VarDecl:
			if x.Init != nil {
				s.stores(x.Name, x.Init)
			}
		}
	}
	for _, fn := range f.Functions() {
		s.Funcs = append(s.Funcs, summarizeFunc(fn, last[fn.Name] == fn))
		cast.Walk(fn.Body, func(node cast.Node) bool {
			switch x := node.(type) {
			case *cast.AssignExpr:
				if slot := slotName(x.X); slot != "" {
					s.stores(slot, x.Y)
				}
			case *cast.DeclStmt:
				if x.Init != nil {
					s.stores(x.Name, x.Init)
				}
			}
			return true
		})
	}
	s.Hash = s.hash()
	return s
}

// stores records every identifier expr may store under slot. Initializer
// lists record their elements as initializer facts.
func (s *Summary) stores(slot string, expr cast.Expr) {
	switch x := expr.(type) {
	case *cast.Ident:
		s.Stores = append(s.Stores, Store{Slot: slot, Ident: x.Name})
	case *cast.UnaryExpr:
		s.stores(slot, x.X) // &fn
	case *cast.CastExpr:
		s.stores(slot, x.X)
	case *cast.CondExpr:
		s.stores(slot, x.Then)
		s.stores(slot, x.Else)
	case *cast.InitListExpr:
		for _, el := range x.Elems {
			if id, ok := unwrapIdent(el); ok {
				s.Stores = append(s.Stores, Store{Slot: slot, Ident: id, Init: true})
			}
		}
	}
}

func summarizeFunc(fn *cast.FuncDecl, visible bool) Func {
	out := Func{Name: fn.Name, Static: fn.Static, Visible: visible, Fingerprint: fingerprint(fn)}
	calls := cast.Calls(fn.Body)
	ord := make(map[*cast.CallExpr]int32, len(calls))
	out.Calls = make([]Call, len(calls))
	for i, call := range calls {
		ord[call] = int32(i)
		c := &out.Calls[i]
		if c.Name = call.FunName(); c.Name != "" {
			c.Kind = catalogKind(c.Name)
		} else {
			c.Slot = slotName(call.Fun)
			_, c.Field = unwrapField(call.Fun)
		}
	}

	g := cfg.Build(fn)
	for _, u := range g.Units {
		switch u.Stmt.(type) {
		case *cast.ExprStmt, *cast.DeclStmt:
			if call, ok := u.Expr.(*cast.CallExpr); ok && u.Kind == cfg.UnitStmt {
				out.Calls[ord[call]].Stmt = true
			}
		}
	}
	nb := len(g.Blocks)
	out.Flow.Preds = make([][]int32, nb)
	out.Flow.Calls = make([][]int32, nb)
	reach := g.Reachable()
	for _, blk := range g.Blocks {
		for _, succ := range blk.Succs {
			out.Flow.Preds[succ.ID] = append(out.Flow.Preds[succ.ID], int32(blk.ID))
		}
		if reach[blk.ID] && len(blk.Succs) == 0 {
			out.Flow.Exits = append(out.Flow.Exits, int32(blk.ID))
		}
		for _, u := range blk.Units {
			root := u.Root()
			if root == nil {
				continue
			}
			for _, call := range cast.Calls(root) {
				out.Flow.Calls[blk.ID] = append(out.Flow.Calls[blk.ID], ord[call])
			}
		}
	}
	return out
}

// catalogKind is the barrier kind the built-in catalogs give a callee
// name: Table 1 primitives, the seqcount API, then Table 2 entries with
// barrier semantics as full barriers.
func catalogKind(name string) memmodel.BarrierKind {
	if p := memmodel.Barrier(name); p != nil {
		return p.Kind
	}
	if k := memmodel.SeqcountKind(name); k != memmodel.None {
		return k
	}
	if memmodel.HasBarrierSemantics(name) {
		return memmodel.FullBarrier
	}
	return memmodel.None
}

func unwrapIdent(e cast.Expr) (string, bool) {
	for {
		switch x := e.(type) {
		case *cast.Ident:
			return x.Name, true
		case *cast.UnaryExpr:
			e = x.X
		case *cast.CastExpr:
			e = x.X
		default:
			return "", false
		}
	}
}

func unwrapField(e cast.Expr) (*cast.FieldExpr, bool) {
	for {
		switch x := e.(type) {
		case *cast.FieldExpr:
			return x, true
		case *cast.UnaryExpr:
			e = x.X
		case *cast.CastExpr:
			e = x.X
		case *cast.IndexExpr:
			e = x.X
		default:
			return nil, false
		}
	}
}

// slotName names the destination of a pointer store: a plain variable or
// the final field of a field chain.
func slotName(e cast.Expr) string {
	switch x := e.(type) {
	case *cast.Ident:
		return x.Name
	case *cast.FieldExpr:
		return x.Name
	case *cast.UnaryExpr:
		return slotName(x.X) // *fp = ...
	case *cast.IndexExpr:
		return slotName(x.X) // ops[i] = ...
	}
	return ""
}

// enc is an append-only binary encoding for digests: strings carry their
// length, so concatenations cannot collide.
type enc []byte

func (e enc) str(s string) enc { return append(binary.AppendUvarint(e, uint64(len(s))), s...) }
func (e enc) num(n int) enc    { return binary.AppendUvarint(e, uint64(n)) }

func (e enc) flags(bits ...bool) enc {
	var v uint64
	for i, b := range bits {
		if b {
			v |= 1 << i
		}
	}
	return binary.AppendUvarint(e, v)
}

func (e enc) ints(xs []int32) enc {
	e = e.num(len(xs))
	for _, x := range xs {
		e = e.num(int(x))
	}
	return e
}

func digest(e enc) string {
	sum := sha256.Sum256(e)
	return string(sum[:16])
}

func (s *Summary) hash() string {
	e := enc(nil).str(s.File).num(len(s.Funcs))
	for i := range s.Funcs {
		f := &s.Funcs[i]
		e = e.str(f.Name).flags(f.Static, f.Visible).num(len(f.Calls))
		for _, c := range f.Calls {
			e = e.str(c.Name).str(c.Slot).flags(c.Field, c.Stmt).num(int(c.Kind))
		}
		e = e.num(len(f.Flow.Preds))
		for _, ps := range f.Flow.Preds {
			e = e.ints(ps)
		}
		e = e.ints(f.Flow.Exits)
		for _, cs := range f.Flow.Calls {
			e = e.ints(cs)
		}
	}
	e = e.num(len(s.Stores))
	for _, st := range s.Stores {
		e = e.str(st.Slot).str(st.Ident).flags(st.Init)
	}
	return digest(e)
}

// fingerprint digests a declaration: its printed source, which fixes the
// tree's shape and every name, operator and literal, and the position of
// every node in Walk order.
func fingerprint(fd *cast.FuncDecl) string {
	e := enc(nil).str(cast.Print(fd))
	cast.Walk(fd, func(n cast.Node) bool {
		p := n.Pos()
		e = e.str(p.File).num(p.Line).num(p.Col)
		return true
	})
	return digest(e)
}
