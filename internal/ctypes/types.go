// Package ctypes resolves the types of expressions in the parsed C subset.
//
// OFence identifies shared objects by the tuple (typeof(struct),
// nameof(field)); this package provides exactly that resolution: it builds
// symbol tables from a file's struct, typedef, variable and function
// declarations, then infers the struct type behind each FieldExpr, following
// pointers, array indexing, casts, typedefs and local variable declarations.
package ctypes

import (
	"ofence/internal/cast"
)

// Type is a resolved semantic type.
type Type struct {
	// Kind discriminates the representation.
	Kind Kind
	// Name is the base name for Basic types and the struct tag for Struct
	// types ("" for unresolved).
	Name string
	// Elem is the pointee/element type for Pointer and Array.
	Elem *Type
	// Union marks a union rather than a struct.
	Union bool
}

// Kind classifies a resolved type.
type Kind int

const (
	// Unknown is an unresolvable type; analysis degrades gracefully.
	Unknown Kind = iota
	// Basic is an integer/float/char/void scalar or a typedef of one.
	Basic
	// Struct is a struct or union type, identified by tag.
	Struct
	// Pointer is a pointer to Elem.
	Pointer
	// Array is an array of Elem.
	Array
	// Func is a function (only its existence matters here).
	Func
)

// String renders the type for diagnostics.
func (t *Type) String() string {
	if t == nil {
		return "?"
	}
	switch t.Kind {
	case Basic:
		return t.Name
	case Struct:
		kw := "struct"
		if t.Union {
			kw = "union"
		}
		return kw + " " + t.Name
	case Pointer:
		return t.Elem.String() + "*"
	case Array:
		return t.Elem.String() + "[]"
	case Func:
		return "func"
	}
	return "?"
}

// Deref strips pointers and arrays down to the base type.
func (t *Type) Deref() *Type {
	for t != nil && (t.Kind == Pointer || t.Kind == Array) {
		t = t.Elem
	}
	return t
}

// StructTag returns the struct tag when t (possibly behind pointers/arrays)
// is a struct type, else "".
func (t *Type) StructTag() string {
	d := t.Deref()
	if d != nil && d.Kind == Struct {
		return d.Name
	}
	return ""
}

// Table holds the declarations visible in one translation unit. A table
// may extend a base table it shares (see Extend): its lookups read its own
// maps first and the base's after.
type Table struct {
	base     *Table
	structs  map[string]*cast.StructDecl
	typedefs map[string]*cast.TypeExpr
	// typedefStruct maps a typedef name directly to a struct tag when the
	// typedef wraps a struct (possibly anonymous).
	typedefStruct map[string]string
	globals       map[string]*Type
	funcs         map[string]*cast.FuncDecl
}

// NewTable builds the symbol tables for the declarations of files, in
// order: a later declaration of a name replaces an earlier one.
func NewTable(files ...*cast.File) *Table {
	t := newTable(nil)
	for _, f := range files {
		t.add(f.Decls)
	}
	return t
}

// Extend returns the table of t's declarations followed by decls. It
// shares t, which it never writes, so t may be shared by any number of
// extensions: a lookup finds a name among decls first and in t after,
// exactly as in one table built from both.
func (t *Table) Extend(decls []cast.Decl) *Table {
	x := newTable(t)
	x.add(decls)
	return x
}

func newTable(base *Table) *Table {
	return &Table{
		base:          base,
		structs:       map[string]*cast.StructDecl{},
		typedefs:      map[string]*cast.TypeExpr{},
		typedefStruct: map[string]string{},
		globals:       map[string]*Type{},
		funcs:         map[string]*cast.FuncDecl{},
	}
}

// lookup finds key in the map of t that m picks, then in its bases'.
func lookup[V any](t *Table, m func(*Table) map[string]V, key string) (V, bool) {
	for ; t != nil; t = t.base {
		if v, ok := m(t)[key]; ok {
			return v, true
		}
	}
	var zero V
	return zero, false
}

// add merges decls into the table.
func (t *Table) add(decls []cast.Decl) {
	for _, d := range decls {
		switch x := d.(type) {
		case *cast.StructDecl:
			if x.Tag != "" {
				t.structs[x.Tag] = x
			}
		case *cast.TypedefDecl:
			t.typedefs[x.Name] = x.Type
			if x.Struct != nil {
				if x.Struct.Tag != "" {
					t.structs[x.Struct.Tag] = x.Struct
				}
				t.typedefStruct[x.Name] = x.Struct.Tag
			} else if x.Type != nil && x.Type.Struct != "" && x.Type.Pointers == 0 {
				t.typedefStruct[x.Name] = x.Type.Struct
			}
		case *cast.VarDecl:
			t.globals[x.Name] = t.Resolve(x.Type)
		case *cast.FuncDecl:
			t.funcs[x.Name] = x
		}
	}
}

// Struct returns the declaration of struct tag, or nil.
func (t *Table) Struct(tag string) *cast.StructDecl {
	sd, _ := lookup(t, func(t *Table) map[string]*cast.StructDecl { return t.structs }, tag)
	return sd
}

// Func returns the declaration of the named function, or nil.
func (t *Table) Func(name string) *cast.FuncDecl {
	fd, _ := lookup(t, func(t *Table) map[string]*cast.FuncDecl { return t.funcs }, name)
	return fd
}

// global returns the type of the named global variable, if it has one.
func (t *Table) global(name string) (*Type, bool) {
	return lookup(t, func(t *Table) map[string]*Type { return t.globals }, name)
}

// Resolve converts a syntactic TypeExpr to a semantic Type, following
// typedefs.
func (t *Table) Resolve(te *cast.TypeExpr) *Type {
	if te == nil {
		return &Type{Kind: Unknown}
	}
	var base *Type
	switch {
	case te.Struct != "":
		base = &Type{Kind: Struct, Name: te.Struct, Union: te.Union}
	case te.Name != "":
		if tag, ok := lookup(t, func(t *Table) map[string]string { return t.typedefStruct }, te.Name); ok {
			base = &Type{Kind: Struct, Name: tag}
		} else if under, ok := lookup(t, func(t *Table) map[string]*cast.TypeExpr { return t.typedefs }, te.Name); ok && under != nil {
			base = t.Resolve(under)
		} else {
			base = &Type{Kind: Basic, Name: te.Name}
		}
	default:
		base = &Type{Kind: Unknown}
	}
	for i := 0; i < te.ArrayDims; i++ {
		base = &Type{Kind: Array, Elem: base}
	}
	for i := 0; i < te.Pointers; i++ {
		base = &Type{Kind: Pointer, Elem: base}
	}
	return base
}

// FieldType returns the declared type of field name in struct tag, or nil.
func (t *Table) FieldType(tag, field string) *Type {
	sd := t.Struct(tag)
	if sd == nil {
		return nil
	}
	for _, fd := range sd.Fields {
		if fd.Name == field {
			return t.Resolve(fd.Type)
		}
	}
	return nil
}

// Scope resolves local names within one function.
type Scope struct {
	table  *Table
	fn     *cast.FuncDecl
	locals map[string]*Type
}

// NewScope builds the local symbol table for fn: parameters plus every local
// declaration in the body (C block scoping is flattened — sufficient for the
// analysis, which only needs field typing).
func (t *Table) NewScope(fn *cast.FuncDecl) *Scope {
	s := &Scope{table: t, fn: fn, locals: map[string]*Type{}}
	for _, p := range fn.Params {
		if p.Name != "" {
			s.locals[p.Name] = t.Resolve(p.Type)
		}
	}
	if fn.Body != nil {
		cast.Walk(fn.Body, func(n cast.Node) bool {
			if ds, ok := n.(*cast.DeclStmt); ok && ds.Name != "" {
				s.locals[ds.Name] = t.Resolve(ds.Type)
			}
			return true
		})
	}
	return s
}

// Lookup resolves a name: locals shadow globals.
func (s *Scope) Lookup(name string) *Type {
	if ty, ok := s.locals[name]; ok {
		return ty
	}
	if ty, ok := s.table.global(name); ok {
		return ty
	}
	return nil
}

// ExprType infers the type of e within the scope. Unresolvable expressions
// yield Unknown, never nil.
func (s *Scope) ExprType(e cast.Expr) *Type {
	unknown := &Type{Kind: Unknown}
	switch x := e.(type) {
	case *cast.Ident:
		if ty := s.Lookup(x.Name); ty != nil {
			return ty
		}
		if s.table.Func(x.Name) != nil {
			return &Type{Kind: Func, Name: x.Name}
		}
		return unknown
	case *cast.Lit:
		return &Type{Kind: Basic, Name: "int"}
	case *cast.FieldExpr:
		base := s.ExprType(x.X)
		d := base.Deref()
		if d == nil || d.Kind != Struct {
			return unknown
		}
		if ft := s.table.FieldType(d.Name, x.Name); ft != nil {
			return ft
		}
		return unknown
	case *cast.IndexExpr:
		base := s.ExprType(x.X)
		if base.Kind == Pointer || base.Kind == Array {
			return base.Elem
		}
		return unknown
	case *cast.UnaryExpr:
		switch {
		case x.Sizeof:
			return &Type{Kind: Basic, Name: "unsigned long"}
		case x.Op.String() == "*":
			base := s.ExprType(x.X)
			if base.Kind == Pointer || base.Kind == Array {
				return base.Elem
			}
			return unknown
		case x.Op.String() == "&":
			return &Type{Kind: Pointer, Elem: s.ExprType(x.X)}
		default:
			return s.ExprType(x.X)
		}
	case *cast.PostfixExpr:
		return s.ExprType(x.X)
	case *cast.BinaryExpr:
		// Pointer arithmetic keeps the pointer type; otherwise scalar.
		lt := s.ExprType(x.X)
		if lt.Kind == Pointer || lt.Kind == Array {
			return lt
		}
		rt := s.ExprType(x.Y)
		if rt.Kind == Pointer || rt.Kind == Array {
			return rt
		}
		return &Type{Kind: Basic, Name: "int"}
	case *cast.AssignExpr:
		return s.ExprType(x.X)
	case *cast.CondExpr:
		return s.ExprType(x.Then)
	case *cast.CastExpr:
		return s.table.Resolve(x.Type)
	case *cast.CommaExpr:
		return s.ExprType(x.Y)
	case *cast.CallExpr:
		if name := x.FunName(); name != "" {
			if fd := s.table.Func(name); fd != nil {
				return s.table.Resolve(fd.Result)
			}
		}
		return unknown
	case *cast.SizeofTypeExpr:
		return &Type{Kind: Basic, Name: "unsigned long"}
	case *cast.StmtExpr:
		// Value of the last expression statement in the block.
		if x.Block != nil && len(x.Block.Stmts) > 0 {
			if es, ok := x.Block.Stmts[len(x.Block.Stmts)-1].(*cast.ExprStmt); ok {
				return s.ExprType(es.X)
			}
		}
		return unknown
	}
	return unknown
}

// FieldOwner resolves the struct tag that owns the field access fe: for
// "p->f" it is the struct behind p's type; for "s.f" the struct of s.
// Returns "" when unresolvable.
func (s *Scope) FieldOwner(fe *cast.FieldExpr) string {
	return s.ExprType(fe.X).StructTag()
}
