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
// An Arena is single-goroutine (one per parser). A nil *Arena is valid and
// falls back to plain per-node allocation — the cparser.NewNoArena path.
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
	if a == nil {
		return 0
	}
	return a.bytes
}

// The New* methods return a zeroed node for the caller to fill. On a nil
// Arena they allocate plainly, preserving pre-arena behavior bit for bit.

func (a *Arena) NewIdent() *Ident {
	if a == nil {
		return new(Ident)
	}
	return a.idents.alloc(&a.bytes)
}

func (a *Arena) NewLit() *Lit {
	if a == nil {
		return new(Lit)
	}
	return a.lits.alloc(&a.bytes)
}

func (a *Arena) NewFieldExpr() *FieldExpr {
	if a == nil {
		return new(FieldExpr)
	}
	return a.fields.alloc(&a.bytes)
}

func (a *Arena) NewIndexExpr() *IndexExpr {
	if a == nil {
		return new(IndexExpr)
	}
	return a.indexes.alloc(&a.bytes)
}

func (a *Arena) NewCallExpr() *CallExpr {
	if a == nil {
		return new(CallExpr)
	}
	return a.calls.alloc(&a.bytes)
}

func (a *Arena) NewPostfixExpr() *PostfixExpr {
	if a == nil {
		return new(PostfixExpr)
	}
	return a.postfixes.alloc(&a.bytes)
}

func (a *Arena) NewUnaryExpr() *UnaryExpr {
	if a == nil {
		return new(UnaryExpr)
	}
	return a.unaries.alloc(&a.bytes)
}

func (a *Arena) NewBinaryExpr() *BinaryExpr {
	if a == nil {
		return new(BinaryExpr)
	}
	return a.binaries.alloc(&a.bytes)
}

func (a *Arena) NewAssignExpr() *AssignExpr {
	if a == nil {
		return new(AssignExpr)
	}
	return a.assigns.alloc(&a.bytes)
}

func (a *Arena) NewCondExpr() *CondExpr {
	if a == nil {
		return new(CondExpr)
	}
	return a.conds.alloc(&a.bytes)
}

func (a *Arena) NewCommaExpr() *CommaExpr {
	if a == nil {
		return new(CommaExpr)
	}
	return a.commas.alloc(&a.bytes)
}

func (a *Arena) NewCastExpr() *CastExpr {
	if a == nil {
		return new(CastExpr)
	}
	return a.casts.alloc(&a.bytes)
}

func (a *Arena) NewTypeExpr() *TypeExpr {
	if a == nil {
		return new(TypeExpr)
	}
	return a.types.alloc(&a.bytes)
}

func (a *Arena) NewExprStmt() *ExprStmt {
	if a == nil {
		return new(ExprStmt)
	}
	return a.exprStmts.alloc(&a.bytes)
}

func (a *Arena) NewDeclStmt() *DeclStmt {
	if a == nil {
		return new(DeclStmt)
	}
	return a.declStmts.alloc(&a.bytes)
}

func (a *Arena) NewBlockStmt() *BlockStmt {
	if a == nil {
		return new(BlockStmt)
	}
	return a.blocks.alloc(&a.bytes)
}

func (a *Arena) NewReturnStmt() *ReturnStmt {
	if a == nil {
		return new(ReturnStmt)
	}
	return a.returns.alloc(&a.bytes)
}

func (a *Arena) NewIfStmt() *IfStmt {
	if a == nil {
		return new(IfStmt)
	}
	return a.ifs.alloc(&a.bytes)
}

func (a *Arena) NewForStmt() *ForStmt {
	if a == nil {
		return new(ForStmt)
	}
	return a.fors.alloc(&a.bytes)
}

func (a *Arena) NewWhileStmt() *WhileStmt {
	if a == nil {
		return new(WhileStmt)
	}
	return a.whiles.alloc(&a.bytes)
}

func (a *Arena) NewDoWhileStmt() *DoWhileStmt {
	if a == nil {
		return new(DoWhileStmt)
	}
	return a.dos.alloc(&a.bytes)
}

func (a *Arena) NewSwitchStmt() *SwitchStmt {
	if a == nil {
		return new(SwitchStmt)
	}
	return a.switches.alloc(&a.bytes)
}

func (a *Arena) NewVarDecl() *VarDecl {
	if a == nil {
		return new(VarDecl)
	}
	return a.varDecls.alloc(&a.bytes)
}

func (a *Arena) NewStructDecl() *StructDecl {
	if a == nil {
		return new(StructDecl)
	}
	return a.structDecls.alloc(&a.bytes)
}

func (a *Arena) NewFieldDecl() *FieldDecl {
	if a == nil {
		return new(FieldDecl)
	}
	return a.fieldDecls.alloc(&a.bytes)
}

func (a *Arena) NewEnumDecl() *EnumDecl {
	if a == nil {
		return new(EnumDecl)
	}
	return a.enumDecls.alloc(&a.bytes)
}

func (a *Arena) NewTypedefDecl() *TypedefDecl {
	if a == nil {
		return new(TypedefDecl)
	}
	return a.typedefDecls.alloc(&a.bytes)
}

func (a *Arena) NewFuncDecl() *FuncDecl {
	if a == nil {
		return new(FuncDecl)
	}
	return a.funcDecls.alloc(&a.bytes)
}

func (a *Arena) NewParamDecl() *ParamDecl {
	if a == nil {
		return new(ParamDecl)
	}
	return a.paramDecls.alloc(&a.bytes)
}
