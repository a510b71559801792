package ctypes

import (
	"fmt"
	"strings"
	"testing"

	"ofence/internal/cast"
	"ofence/internal/cparser"
	"ofence/internal/cpp"
)

func parseFile(t *testing.T, src string) *cast.File {
	t.Helper()
	f, errs := cparser.ParseSource("test.c", src, cpp.Options{})
	for _, err := range errs {
		t.Fatalf("parse error: %v", err)
	}
	return f
}

const typeSrc = `
struct inner { int z; };
struct my_struct {
	int x;
	int init;
	struct inner *in;
	struct inner direct;
	int arr[8];
	struct my_struct *next;
};
typedef struct my_struct ms_t;
typedef struct { unsigned sequence; } seq_t;
typedef unsigned long ulong_t;
struct my_struct global_s;
struct my_struct *global_p;
ulong_t global_u;

int helper(struct inner *p);
struct inner *get_inner(void);

void fn(struct my_struct *a, ms_t *b, seq_t *s) {
	struct my_struct local;
	struct inner *ip = a->in;
	int v;
	v = a->x;
	use(b, s, local, ip, v);
}
`

func buildScope(t *testing.T) (*Table, *Scope, *cast.File) {
	t.Helper()
	f := parseFile(t, typeSrc)
	tbl := NewTable(f)
	fn := f.Function("fn")
	if fn == nil {
		t.Fatal("fn not found")
	}
	return tbl, tbl.NewScope(fn), f
}

func TestResolveStruct(t *testing.T) {
	tbl, _, _ := buildScope(t)
	if tbl.Struct("my_struct") == nil {
		t.Fatal("my_struct not registered")
	}
	if tbl.Struct("inner") == nil {
		t.Fatal("inner not registered")
	}
	ft := tbl.FieldType("my_struct", "in")
	if ft == nil || ft.Kind != Pointer || ft.Elem.StructTag() != "inner" {
		t.Errorf("in: %v", ft)
	}
	if tbl.FieldType("my_struct", "nosuch") != nil {
		t.Error("nonexistent field resolved")
	}
	if tbl.FieldType("nostruct", "x") != nil {
		t.Error("nonexistent struct resolved")
	}
}

func TestResolveTypedefs(t *testing.T) {
	tbl, _, _ := buildScope(t)
	ty := tbl.Resolve(&cast.TypeExpr{Name: "ms_t", Pointers: 1})
	if ty.Kind != Pointer || ty.Elem.StructTag() != "my_struct" {
		t.Errorf("ms_t* = %v", ty)
	}
	ty = tbl.Resolve(&cast.TypeExpr{Name: "seq_t"})
	if ty.StructTag() != "seq_t" {
		t.Errorf("seq_t = %v (anonymous struct named by typedef)", ty)
	}
	ty = tbl.Resolve(&cast.TypeExpr{Name: "ulong_t"})
	if ty.Kind != Basic || ty.Name != "unsigned long" {
		t.Errorf("ulong_t = %v", ty)
	}
}

func TestScopeLookup(t *testing.T) {
	_, sc, _ := buildScope(t)
	if ty := sc.Lookup("a"); ty == nil || ty.StructTag() != "my_struct" {
		t.Errorf("a = %v", ty)
	}
	if ty := sc.Lookup("local"); ty == nil || ty.Kind != Struct {
		t.Errorf("local = %v", ty)
	}
	if ty := sc.Lookup("ip"); ty == nil || ty.StructTag() != "inner" {
		t.Errorf("ip = %v", ty)
	}
	if ty := sc.Lookup("global_u"); ty == nil || ty.Kind != Basic {
		t.Errorf("global_u = %v", ty)
	}
	if sc.Lookup("nosuch") != nil {
		t.Error("nonexistent name resolved")
	}
}

func exprOf(t *testing.T, src string) (cast.Expr, *Scope) {
	t.Helper()
	full := typeSrc + "\nvoid probe(struct my_struct *a, ms_t *b, seq_t *s) { sink(" + src + "); }"
	f := parseFile(t, full)
	tbl := NewTable(f)
	fn := f.Function("probe")
	call := cast.Calls(fn.Body)[len(cast.Calls(fn.Body))-1]
	// sink(...) is the last call; its single argument is the probe expr.
	for _, c := range cast.Calls(fn.Body) {
		if c.FunName() == "sink" {
			call = c
		}
	}
	if call.FunName() != "sink" || len(call.Args) != 1 {
		t.Fatalf("bad probe: %+v", call)
	}
	return call.Args[0], tbl.NewScope(fn)
}

func TestExprTypes(t *testing.T) {
	cases := []struct {
		expr string
		want string
	}{
		{"a->x", "int"},
		{"a->in", "struct inner*"},
		{"a->in->z", "int"},
		{"a->direct.z", "int"},
		{"a->arr[3]", "int"},
		{"a->next->next->x", "int"},
		{"b->init", "int"},          // typedef pointer to struct
		{"s->sequence", "unsigned"}, // anonymous typedef struct
		{"*a->in", "struct inner"},
		{"&a->x", "int*"},
		{"(struct inner *)a", "struct inner*"},
		{"a->x + 1", "int"},
		{"a->x ? a->in : a->in", "struct inner*"},
		{"sizeof(struct inner)", "unsigned long"},
		{"get_inner()", "struct inner*"},
		{"helper(a->in)", "int"},
	}
	for _, c := range cases {
		e, sc := exprOf(t, c.expr)
		got := sc.ExprType(e).String()
		if got != c.want {
			t.Errorf("typeof(%s) = %s, want %s", c.expr, got, c.want)
		}
	}
}

func TestFieldOwner(t *testing.T) {
	cases := []struct {
		expr  string
		owner string
	}{
		{"a->x", "my_struct"},
		{"a->in->z", "inner"},
		{"a->direct.z", "inner"},
		{"b->init", "my_struct"},
		{"s->sequence", "seq_t"},
		{"a->next->init", "my_struct"},
	}
	for _, c := range cases {
		e, sc := exprOf(t, c.expr)
		fe, ok := e.(*cast.FieldExpr)
		if !ok {
			t.Fatalf("%s: not a field expr: %T", c.expr, e)
		}
		if got := sc.FieldOwner(fe); got != c.owner {
			t.Errorf("owner(%s) = %q, want %q", c.expr, got, c.owner)
		}
	}
}

func TestFieldOwnerUnknown(t *testing.T) {
	e, sc := exprOf(t, "unknown_var->f")
	fe := e.(*cast.FieldExpr)
	if got := sc.FieldOwner(fe); got != "" {
		t.Errorf("owner of unknown var = %q, want empty", got)
	}
}

func TestUnknownNeverNil(t *testing.T) {
	_, sc, _ := buildScope(t)
	if ty := sc.ExprType(&cast.Ident{Name: "zzz"}); ty == nil || ty.Kind != Unknown {
		t.Errorf("unknown ident type = %v", ty)
	}
}

func TestDeref(t *testing.T) {
	ty := &Type{Kind: Pointer, Elem: &Type{Kind: Array, Elem: &Type{Kind: Struct, Name: "s"}}}
	if ty.Deref().Name != "s" {
		t.Errorf("Deref = %v", ty.Deref())
	}
	if ty.StructTag() != "s" {
		t.Errorf("StructTag = %q", ty.StructTag())
	}
	var nilType *Type
	if nilType.String() != "?" {
		t.Error("nil type String")
	}
}

func TestMergeMultipleFiles(t *testing.T) {
	hdr := parseFile(t, "struct shared { int f; };")
	src := parseFile(t, "void g(struct shared *p) { use(p->f); }")
	tbl := NewTable(hdr, src)
	fn := src.Function("g")
	sc := tbl.NewScope(fn)
	fe := cast.FieldAccesses(fn)[0]
	if sc.FieldOwner(fe) != "shared" {
		t.Error("cross-file struct not resolved")
	}
}

func TestTypedefChain(t *testing.T) {
	f := parseFile(t, `
typedef unsigned long base_t;
typedef base_t mid_t;
typedef mid_t top_t;
top_t v;`)
	tbl := NewTable(f)
	ty := tbl.Resolve(&cast.TypeExpr{Name: "top_t"})
	if ty.Kind != Basic || ty.Name != "unsigned long" {
		t.Errorf("chained typedef = %v", ty)
	}
}

func TestTypedefPointerToStruct(t *testing.T) {
	f := parseFile(t, `
struct real { int fld; };
typedef struct real *realp_t;
void fn(realp_t p) { use(p->fld); }`)
	tbl := NewTable(f)
	fn := f.Function("fn")
	sc := tbl.NewScope(fn)
	fe := cast.FieldAccesses(fn)[0]
	if got := sc.FieldOwner(fe); got != "real" {
		t.Errorf("owner through pointer typedef = %q", got)
	}
}

func TestArrayOfStructs(t *testing.T) {
	f := parseFile(t, `
struct slot { long v; };
struct table { struct slot slots[8]; int n; };
void fn(struct table *t) { use(t->slots[t->n].v); }`)
	tbl := NewTable(f)
	fn := f.Function("fn")
	sc := tbl.NewScope(fn)
	owners := map[string]bool{}
	for _, fe := range cast.FieldAccesses(fn) {
		owners[sc.FieldOwner(fe)+"."+fe.Name] = true
	}
	for _, want := range []string{"table.slots", "table.n", "slot.v"} {
		if !owners[want] {
			t.Errorf("missing access %s in %v", want, owners)
		}
	}
}

func TestUnionFieldResolution(t *testing.T) {
	f := parseFile(t, `
union uval { long l; double d; };
struct holder { union uval u; int tag; };
void fn(struct holder *h) { use(h->u.l, h->tag); }`)
	tbl := NewTable(f)
	fn := f.Function("fn")
	sc := tbl.NewScope(fn)
	found := false
	for _, fe := range cast.FieldAccesses(fn) {
		if fe.Name == "l" && sc.FieldOwner(fe) == "uval" {
			found = true
		}
	}
	if !found {
		t.Error("union field not resolved")
	}
}

func TestDoublePointer(t *testing.T) {
	f := parseFile(t, `
struct node { struct node *next; int key; };
void fn(struct node **head) { use((*head)->key); }`)
	tbl := NewTable(f)
	fn := f.Function("fn")
	sc := tbl.NewScope(fn)
	fe := cast.FieldAccesses(fn)[0]
	if got := sc.FieldOwner(fe); got != "node" {
		t.Errorf("owner through double pointer deref = %q", got)
	}
}

func TestShadowingLocalOverGlobal(t *testing.T) {
	f := parseFile(t, `
struct a { int fa; };
struct b { int fb; };
struct a *shared;
void fn(void) {
	struct b *shared;
	use(shared->fb);
}`)
	tbl := NewTable(f)
	fn := f.Function("fn")
	sc := tbl.NewScope(fn)
	fe := cast.FieldAccesses(fn)[0]
	if got := sc.FieldOwner(fe); got != "b" {
		t.Errorf("local shadow lost: owner = %q", got)
	}
}

// TestExtendMatchesOneTable checks that a table extending a shared base
// resolves every name as one table over all the declarations does, at
// every split point: the later declaration of a name wins, whichever side
// of the split either one is on.
func TestExtendMatchesOneTable(t *testing.T) {
	f := parseFile(t, `
struct a { int x; };
typedef struct a a_t;
typedef int num;
int g;
int f(void);
struct a { long y; };
typedef long num;
typedef struct b { int q; } a_t;
struct a *g;
long f(void);
typedef num nn;
nn h;
`)
	render := func(tb *Table) string {
		sc := tb.NewScope(&cast.FuncDecl{})
		var out []string
		for _, tag := range []string{"a", "b", "zz"} {
			out = append(out, fmt.Sprintf("struct %s=%p", tag, tb.Struct(tag)), tb.FieldType(tag, "x").String(), tb.FieldType(tag, "y").String())
		}
		for _, name := range []string{"a_t", "num", "nn", "zz"} {
			out = append(out, name+"="+tb.Resolve(&cast.TypeExpr{Name: name}).String())
		}
		for _, name := range []string{"f", "g", "h", "zz"} {
			out = append(out, fmt.Sprintf("%s=%p %s", name, tb.Func(name), sc.ExprType(&cast.Ident{Name: name})))
		}
		return strings.Join(out, " ")
	}
	want := render(NewTable(f))
	for n := range len(f.Decls) + 1 {
		if got := render(NewTable(&cast.File{Decls: f.Decls[:n]}).Extend(f.Decls[n:])); got != want {
			t.Errorf("split at %d:\n got: %s\nwant: %s", n, got, want)
		}
	}
}
