package cast

import "unsafe"

// Arena batch-allocates the hot AST node types in typed slabs, so parsing a
// file performs a handful of slab allocations instead of one heap object per
// node. Nodes allocated from an Arena are ordinary pointers with ordinary
// lifetimes — the slabs stay reachable exactly as long as any node in them —
// so downstream code never knows the difference; the win is allocator
// pressure: tens of thousands of node allocations per file collapse into
// slab-sized ones, and nodes of a file are contiguous in memory.
//
// An Arena is single-goroutine (one per parser).
type Arena struct {
	idents    slab[Ident]
	lits      slab[Lit]
	fields    slab[FieldExpr]
	indexes   slab[IndexExpr]
	calls     slab[CallExpr]
	postfixes slab[PostfixExpr]
	unaries   slab[UnaryExpr]
	binaries  slab[BinaryExpr]
	assigns   slab[AssignExpr]
	conds     slab[CondExpr]
	commas    slab[CommaExpr]
	casts     slab[CastExpr]
	types     slab[TypeExpr]
	exprStmts slab[ExprStmt]
	declStmts slab[DeclStmt]
	blocks    slab[BlockStmt]
	returns   slab[ReturnStmt]
	ifs       slab[IfStmt]
	fors      slab[ForStmt]
	whiles    slab[WhileStmt]
	dos       slab[DoWhileStmt]
	switches  slab[SwitchStmt]

	varDecls     slab[VarDecl]
	structDecls  slab[StructDecl]
	fieldDecls   slab[FieldDecl]
	enumDecls    slab[EnumDecl]
	typedefDecls slab[TypedefDecl]
	funcDecls    slab[FuncDecl]
	paramDecls   slab[ParamDecl]

	bytes int64
}

// slab hands out zeroed *T values from exponentially growing blocks. A full
// block is simply abandoned to the nodes pointing into it; the allocation
// counter aggregates in the owning Arena.
type slab[T any] struct {
	cur []T
}

func (s *slab[T]) alloc(bytes *int64) *T {
	if len(s.cur) == cap(s.cur) {
		// Start small and double: most analyzed files are a few KB, so a
		// large first block would overshoot the per-type node count many
		// times over, and the overshoot — not the nodes — would dominate the
		// arena's allocation traffic. Doubling bounds abandoned capacity to
		// about the nodes actually allocated.
		n := cap(s.cur) * 2
		if n < 16 {
			n = 16
		}
		if n > 2048 {
			n = 2048
		}
		s.cur = make([]T, 0, n)
		var zero T
		*bytes += int64(n) * int64(unsafe.Sizeof(zero))
	}
	s.cur = s.cur[:len(s.cur)+1]
	return &s.cur[len(s.cur)-1]
}

// Bytes returns the total slab capacity allocated so far — the
// frontend.arena_bytes observability counter.
func (a *Arena) Bytes() int64 {
	return a.bytes
}

// The New* methods return a zeroed node for the caller to fill.

func (a *Arena) NewIdent() *Ident {
	return a.idents.alloc(&a.bytes)
}

func (a *Arena) NewLit() *Lit {
	return a.lits.alloc(&a.bytes)
}

func (a *Arena) NewFieldExpr() *FieldExpr {
	return a.fields.alloc(&a.bytes)
}

func (a *Arena) NewIndexExpr() *IndexExpr {
	return a.indexes.alloc(&a.bytes)
}

func (a *Arena) NewCallExpr() *CallExpr {
	return a.calls.alloc(&a.bytes)
}

func (a *Arena) NewPostfixExpr() *PostfixExpr {
	return a.postfixes.alloc(&a.bytes)
}

func (a *Arena) NewUnaryExpr() *UnaryExpr {
	return a.unaries.alloc(&a.bytes)
}

func (a *Arena) NewBinaryExpr() *BinaryExpr {
	return a.binaries.alloc(&a.bytes)
}

func (a *Arena) NewAssignExpr() *AssignExpr {
	return a.assigns.alloc(&a.bytes)
}

func (a *Arena) NewCondExpr() *CondExpr {
	return a.conds.alloc(&a.bytes)
}

func (a *Arena) NewCommaExpr() *CommaExpr {
	return a.commas.alloc(&a.bytes)
}

func (a *Arena) NewCastExpr() *CastExpr {
	return a.casts.alloc(&a.bytes)
}

func (a *Arena) NewTypeExpr() *TypeExpr {
	return a.types.alloc(&a.bytes)
}

func (a *Arena) NewExprStmt() *ExprStmt {
	return a.exprStmts.alloc(&a.bytes)
}

func (a *Arena) NewDeclStmt() *DeclStmt {
	return a.declStmts.alloc(&a.bytes)
}

func (a *Arena) NewBlockStmt() *BlockStmt {
	return a.blocks.alloc(&a.bytes)
}

func (a *Arena) NewReturnStmt() *ReturnStmt {
	return a.returns.alloc(&a.bytes)
}

func (a *Arena) NewIfStmt() *IfStmt {
	return a.ifs.alloc(&a.bytes)
}

func (a *Arena) NewForStmt() *ForStmt {
	return a.fors.alloc(&a.bytes)
}

func (a *Arena) NewWhileStmt() *WhileStmt {
	return a.whiles.alloc(&a.bytes)
}

func (a *Arena) NewDoWhileStmt() *DoWhileStmt {
	return a.dos.alloc(&a.bytes)
}

func (a *Arena) NewSwitchStmt() *SwitchStmt {
	return a.switches.alloc(&a.bytes)
}

func (a *Arena) NewVarDecl() *VarDecl {
	return a.varDecls.alloc(&a.bytes)
}

func (a *Arena) NewStructDecl() *StructDecl {
	return a.structDecls.alloc(&a.bytes)
}

func (a *Arena) NewFieldDecl() *FieldDecl {
	return a.fieldDecls.alloc(&a.bytes)
}

func (a *Arena) NewEnumDecl() *EnumDecl {
	return a.enumDecls.alloc(&a.bytes)
}

func (a *Arena) NewTypedefDecl() *TypedefDecl {
	return a.typedefDecls.alloc(&a.bytes)
}

func (a *Arena) NewFuncDecl() *FuncDecl {
	return a.funcDecls.alloc(&a.bytes)
}

func (a *Arena) NewParamDecl() *ParamDecl {
	return a.paramDecls.alloc(&a.bytes)
}
