package cparser

import (
	"sync"

	"ofence/internal/cast"
	"ofence/internal/ctoken"
)

// Constructors for the hot AST node kinds, routed through the parser's arena.

func (p *Parser) newIdent(pos ctoken.Position, name string) *cast.Ident {
	n := p.arena.NewIdent()
	n.Position, n.Name = pos, name
	return n
}

func (p *Parser) newLit(pos ctoken.Position, kind ctoken.Kind, text string) *cast.Lit {
	n := p.arena.NewLit()
	n.Position, n.Kind, n.Text = pos, kind, text
	return n
}

func (p *Parser) newField(pos ctoken.Position, x cast.Expr, name string, arrow bool) *cast.FieldExpr {
	n := p.arena.NewFieldExpr()
	n.Position, n.X, n.Name, n.Arrow = pos, x, name, arrow
	return n
}

func (p *Parser) newIndex(pos ctoken.Position, x, idx cast.Expr) *cast.IndexExpr {
	n := p.arena.NewIndexExpr()
	n.Position, n.X, n.Index = pos, x, idx
	return n
}

func (p *Parser) newCall(pos ctoken.Position, fun cast.Expr) *cast.CallExpr {
	n := p.arena.NewCallExpr()
	n.Position, n.Fun = pos, fun
	return n
}

func (p *Parser) newPostfix(pos ctoken.Position, op ctoken.Kind, x cast.Expr) *cast.PostfixExpr {
	n := p.arena.NewPostfixExpr()
	n.Position, n.Op, n.X = pos, op, x
	return n
}

func (p *Parser) newUnary(pos ctoken.Position, op ctoken.Kind, x cast.Expr) *cast.UnaryExpr {
	n := p.arena.NewUnaryExpr()
	n.Position, n.Op, n.X = pos, op, x
	return n
}

func (p *Parser) newSizeof(pos ctoken.Position, x cast.Expr) *cast.UnaryExpr {
	n := p.arena.NewUnaryExpr()
	n.Position, n.Sizeof, n.X = pos, true, x
	return n
}

func (p *Parser) newBinary(pos ctoken.Position, op ctoken.Kind, x, y cast.Expr) *cast.BinaryExpr {
	n := p.arena.NewBinaryExpr()
	n.Position, n.Op, n.X, n.Y = pos, op, x, y
	return n
}

func (p *Parser) newAssign(pos ctoken.Position, op ctoken.Kind, x, y cast.Expr) *cast.AssignExpr {
	n := p.arena.NewAssignExpr()
	n.Position, n.Op, n.X, n.Y = pos, op, x, y
	return n
}

func (p *Parser) newCond(pos ctoken.Position, cond, then, els cast.Expr) *cast.CondExpr {
	n := p.arena.NewCondExpr()
	n.Position, n.Cond, n.Then, n.Else = pos, cond, then, els
	return n
}

func (p *Parser) newComma(pos ctoken.Position, x, y cast.Expr) *cast.CommaExpr {
	n := p.arena.NewCommaExpr()
	n.Position, n.X, n.Y = pos, x, y
	return n
}

func (p *Parser) newCast(pos ctoken.Position, typ *cast.TypeExpr, x cast.Expr) *cast.CastExpr {
	n := p.arena.NewCastExpr()
	n.Position, n.Type, n.X = pos, typ, x
	return n
}

func (p *Parser) newTypeExpr(pos ctoken.Position) *cast.TypeExpr {
	n := p.arena.NewTypeExpr()
	n.Position = pos
	return n
}

func (p *Parser) newExprStmt(pos ctoken.Position, x cast.Expr) *cast.ExprStmt {
	n := p.arena.NewExprStmt()
	n.Position, n.X = pos, x
	return n
}

func (p *Parser) newDeclStmt(pos ctoken.Position, name string, typ *cast.TypeExpr) *cast.DeclStmt {
	n := p.arena.NewDeclStmt()
	n.Position, n.Name, n.Type = pos, name, typ
	return n
}

func (p *Parser) newBlock(pos ctoken.Position) *cast.BlockStmt {
	n := p.arena.NewBlockStmt()
	n.Position = pos
	return n
}

func (p *Parser) newReturn(pos ctoken.Position, v cast.Expr) *cast.ReturnStmt {
	n := p.arena.NewReturnStmt()
	n.Position, n.Value = pos, v
	return n
}

func (p *Parser) newIf(pos ctoken.Position, cond cast.Expr, then, els cast.Stmt) *cast.IfStmt {
	n := p.arena.NewIfStmt()
	n.Position, n.Cond, n.Then, n.Else = pos, cond, then, els
	return n
}

func (p *Parser) newFor(pos ctoken.Position) *cast.ForStmt {
	n := p.arena.NewForStmt()
	n.Position = pos
	return n
}

func (p *Parser) newWhile(pos ctoken.Position, cond cast.Expr, body cast.Stmt) *cast.WhileStmt {
	n := p.arena.NewWhileStmt()
	n.Position, n.Cond, n.Body = pos, cond, body
	return n
}

func (p *Parser) newDoWhile(pos ctoken.Position, body cast.Stmt, cond cast.Expr) *cast.DoWhileStmt {
	n := p.arena.NewDoWhileStmt()
	n.Position, n.Body, n.Cond = pos, body, cond
	return n
}

func (p *Parser) newSwitch(pos ctoken.Position, tag cast.Expr, body *cast.BlockStmt) *cast.SwitchStmt {
	n := p.arena.NewSwitchStmt()
	n.Position, n.Tag, n.Body = pos, tag, body
	return n
}

// newTypeExprCopy clones a declarator's working copy of the base type.
func (p *Parser) newTypeExprCopy(t *cast.TypeExpr) *cast.TypeExpr {
	n := p.arena.NewTypeExpr()
	*n = *t
	return n
}

func (p *Parser) newVarDecl(pos ctoken.Position, name string, typ *cast.TypeExpr, init cast.Expr, extern, static bool) *cast.VarDecl {
	n := p.arena.NewVarDecl()
	n.Position, n.Name, n.Type, n.Init, n.Extern, n.Static = pos, name, typ, init, extern, static
	return n
}

func (p *Parser) newStructDecl(pos ctoken.Position, tag string, union bool) *cast.StructDecl {
	n := p.arena.NewStructDecl()
	n.Position, n.Tag, n.Union = pos, tag, union
	return n
}

func (p *Parser) newFieldDecl(pos ctoken.Position, name string, typ *cast.TypeExpr) *cast.FieldDecl {
	n := p.arena.NewFieldDecl()
	n.Position, n.Name, n.Type = pos, name, typ
	return n
}

func (p *Parser) newEnumDecl(pos ctoken.Position, tag string) *cast.EnumDecl {
	n := p.arena.NewEnumDecl()
	n.Position, n.Tag = pos, tag
	return n
}

func (p *Parser) newTypedefDecl(pos ctoken.Position, name string, typ *cast.TypeExpr) *cast.TypedefDecl {
	n := p.arena.NewTypedefDecl()
	n.Position, n.Name, n.Type = pos, name, typ
	return n
}

func (p *Parser) newFuncDecl(pos ctoken.Position, name string, result *cast.TypeExpr, static, inline bool) *cast.FuncDecl {
	n := p.arena.NewFuncDecl()
	n.Position, n.Name, n.Result, n.Static, n.Inline = pos, name, result, static, inline
	return n
}

func (p *Parser) newParamDecl(pos ctoken.Position, typ *cast.TypeExpr) *cast.ParamDecl {
	n := p.arena.NewParamDecl()
	n.Position, n.Type = pos, typ
	return n
}

// tagNameCache memoizes "struct X"-style spellings process-wide. Distinct
// (keyword, tag) pairs are bounded like identifiers themselves, and sharing
// across files means each spelling is concatenated once per process instead
// of once per parser. A typed map under RWMutex beats sync.Map here: the
// composite key would be boxed (one interface allocation per lookup) where
// the typed map hashes it in place.
var (
	tagNameMu    sync.RWMutex
	tagNameCache = make(map[[2]string]string, 64)
)

// taggedName returns "struct X" / "union X" / "enum X": struct-typed
// declarations repeat the same few tags thousands of times per file, and the
// concatenation was one of the parser's last per-node allocations.
func (p *Parser) taggedName(kw, tag string) string {
	k := [2]string{kw, tag}
	tagNameMu.RLock()
	s, ok := tagNameCache[k]
	tagNameMu.RUnlock()
	if ok {
		return s
	}
	s = kw + " " + tag
	tagNameMu.Lock()
	tagNameCache[k] = s
	tagNameMu.Unlock()
	return s
}
