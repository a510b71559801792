// Package access extracts, for every memory barrier in a function, the
// struct-field accesses surrounding it: the shared-object candidates of
// OFence's pairing heuristic.
//
// Per the paper (§4.2), exploration is bounded to a window of statements
// around each barrier (5 for write barriers, 50 for read barriers by
// default), stops at other barriers and at atomics with barrier semantics,
// and covers one level of same-file callees (via cfg inlining, which also
// gives the caller direction: a barrier inside a small same-file callee
// appears in each caller's stream). Each access records the (struct, field)
// tuple, its distance in statements from the barrier, and whether it is a
// load or a store.
package access

import (
	"context"
	"fmt"
	"sync"

	"ofence/internal/cast"
	"ofence/internal/cfg"
	"ofence/internal/ctoken"
	"ofence/internal/ctypes"
	"ofence/internal/memmodel"
	"ofence/internal/obs"
)

// Object identifies a shared object by data type and field name, the
// aliasing-robust identity of §3.
type Object struct {
	Struct string
	Field  string
}

// String renders the tuple as the paper writes it.
func (o Object) String() string { return "(" + o.Struct + ", " + o.Field + ")" }

// Kind classifies an access.
type Kind int

const (
	// Load is a read of the field.
	Load Kind = iota
	// Store is a write to the field.
	Store
)

// String renders the kind.
func (k Kind) String() string {
	if k == Store {
		return "store"
	}
	return "load"
}

// Access is one classified struct-field access near a barrier.
type Access struct {
	Object Object
	Kind   Kind
	// Unit is the linearized unit containing the access.
	Unit *cfg.Unit
	// Distance is the statement distance from the barrier (0 = the
	// barrier's own unit, e.g. the access of smp_store_release).
	Distance int
	// Before is true when the access precedes the barrier in code order.
	Before bool
	// Expr is the field expression (nil for synthesized accesses of
	// combined primitives where the argument was not a field expression).
	Expr *cast.FieldExpr
	// Once marks accesses wrapped in READ_ONCE/WRITE_ONCE.
	Once bool
	// Pos is the source position of the access.
	Pos ctoken.Position
}

// Site is one barrier occurrence with its surrounding accesses.
type Site struct {
	// File is the analyzed file name.
	File string
	// Fn is the function whose stream the barrier appears in (for inlined
	// barriers this is the caller).
	Fn *cast.FuncDecl
	// Name is the barrier primitive or seqcount API name.
	Name string
	// Kind is what the barrier orders.
	Kind memmodel.BarrierKind
	// Seq marks barriers implied by the seqcount API rather than an
	// explicit primitive.
	Seq bool
	// Unit is the barrier's own unit.
	Unit *cfg.Unit
	// Call is the barrier call expression (for patch generation).
	Call *cast.CallExpr
	// Pos is the barrier's source position: the canonical identity used to
	// deduplicate the same physical barrier seen from multiple functions.
	Pos ctoken.Position
	// Before and After hold the accesses found in the exploration windows,
	// ordered by increasing distance.
	Before []*Access
	After  []*Access
	// WakeUpAfter is the distance to the nearest IPC/wake-up call after the
	// barrier, or -1 when none is in the window.
	WakeUpAfter int
	// NextBarrierAfter is the distance to the next barrier-semantics unit
	// after this one, or -1. Used by the unneeded-barrier check (§5.1).
	NextBarrierAfter int
	// NextBarrierName is the name of that following barrier/function.
	NextBarrierName string

	// objsOnce/objs and idOnce/id memoize Objects() and ID(). Sites are
	// immutable once extraction publishes them (they live in the
	// content-addressed incremental cache and are shared across analyses),
	// so the memos never go stale.
	objsOnce sync.Once
	objs     map[Object]int
	idOnce   sync.Once
	id       string
}

// ID returns the canonical identity of the physical barrier.
func (s *Site) ID() string {
	s.idOnce.Do(func() { s.id = s.Pos.String() + "/" + s.Name })
	return s.id
}

// String renders the site for diagnostics.
func (s *Site) String() string {
	return fmt.Sprintf("%s in %s @%s (%s, %d before, %d after)",
		s.Name, s.Fn.Name, s.Pos, s.Kind, len(s.Before), len(s.After))
}

// Objects returns the distinct objects accessed around the site, with the
// smallest distance at which each occurs. The map is computed once and
// shared; callers must not mutate it.
func (s *Site) Objects() map[Object]int {
	s.objsOnce.Do(func() {
		m := make(map[Object]int, len(s.Before)+len(s.After))
		for _, list := range [2][]*Access{s.Before, s.After} {
			for _, a := range list {
				if d, ok := m[a.Object]; !ok || a.Distance < d {
					m[a.Object] = a.Distance
				}
			}
		}
		s.objs = m
	})
	return s.objs
}

// Orders reports whether the site orders objects o1 and o2: one accessed
// before the barrier and the other after (§4.2: "one object must be accessed
// before one barrier while the other must be accessed after that barrier").
func (s *Site) Orders(o1, o2 Object) bool {
	side := func(obj Object, list []*Access) bool {
		for _, a := range list {
			if a.Object == obj {
				return true
			}
		}
		return false
	}
	return (side(o1, s.Before) && side(o2, s.After)) ||
		(side(o2, s.Before) && side(o1, s.After))
}

// Options configures extraction.
type Options struct {
	// WriteWindow is the exploration bound in statements around write
	// barriers (paper default 5).
	WriteWindow int
	// ReadWindow is the bound around read barriers (paper default 50).
	ReadWindow int
	// InlineDepth is the callee inlining depth (paper: 1).
	InlineDepth int
	// MaxUnits caps per-function stream length.
	MaxUnits int
	// ExtraWakeUps extends the kernel wake-up/IPC list (§4.2: "we maintain
	// a list of wake up functions") for codebases with their own IPC
	// primitives. Entries also gain barrier semantics.
	ExtraWakeUps []string
	// ExtraBarrierSemantics extends the Table 2 catalog: calls to these
	// functions imply a full barrier and bound exploration.
	ExtraBarrierSemantics []string
	// InferredSemantics extends the catalog with interprocedurally inferred
	// implicit-barrier functions (internal/semprop): calls to these names
	// bound exploration like Table 2 entries. Nil in the paper-faithful
	// default mode.
	InferredSemantics map[string]memmodel.BarrierKind
	// Resolve maps a callee name to its cross-file definition (the call
	// graph's per-file view); nil disables cross-file inlining.
	Resolve cfg.Resolver
	// InterprocDepth bounds cross-file callee inlining; 0 keeps the paper's
	// same-file one-level behavior exactly.
	InterprocDepth int
	// Syms, when set, canonicalizes Object strings through the project-wide
	// identifier table, so equal (struct, field) tuples from different files
	// share one backing string. Purely an allocation/locality optimization;
	// Object identity is value-based either way.
	Syms *ctoken.SymTab
}

// isWakeUp consults the kernel catalog plus the user extensions.
func (o Options) isWakeUp(name string) bool {
	if memmodel.IsWakeUp(name) {
		return true
	}
	for _, n := range o.ExtraWakeUps {
		if n == name {
			return true
		}
	}
	return false
}

// hasSemantics consults the kernel catalog plus the user extensions plus the
// interprocedurally inferred set.
func (o Options) hasSemantics(name string) bool {
	if memmodel.HasBarrierSemantics(name) {
		return true
	}
	for _, n := range o.ExtraBarrierSemantics {
		if n == name {
			return true
		}
	}
	if o.inferred(name) {
		return true
	}
	return o.isWakeUp(name) && !memmodel.IsWakeUp(name)
}

// inferred reports whether name carries interprocedurally inferred barrier
// semantics.
func (o Options) inferred(name string) bool {
	k, ok := o.InferredSemantics[name]
	return ok && k != memmodel.None
}

// boundsHere reports whether a call to name in unit u has barrier semantics
// that bound exploration at u. Inferred wrappers whose body was spliced into
// the stream do not bound at the call unit: the actual barrier they contain
// follows in the stream and bounds exploration itself (bounding at the call
// would hide the caller's accesses from the inlined barrier's window).
func (o Options) boundsHere(name string, u *cfg.Unit) bool {
	if !o.hasSemantics(name) {
		return false
	}
	if u.InlinedCall && name == rootCallName(u) && o.inferredOnly(name) {
		return false
	}
	return true
}

// inferredOnly reports whether name's barrier semantics come solely from the
// inference, not the built-in catalog or user extensions.
func (o Options) inferredOnly(name string) bool {
	if !o.inferred(name) {
		return false
	}
	if memmodel.HasBarrierSemantics(name) || o.isWakeUp(name) {
		return false
	}
	for _, n := range o.ExtraBarrierSemantics {
		if n == name {
			return false
		}
	}
	return true
}

// rootCallName names the call a spliced unit's statement consists of.
func rootCallName(u *cfg.Unit) string {
	if call, ok := u.Expr.(*cast.CallExpr); ok {
		return call.FunName()
	}
	return ""
}

// Defaults returns the paper's parameters.
func Defaults() Options {
	return Options{WriteWindow: 5, ReadWindow: 50, InlineDepth: 1, MaxUnits: 20000}
}

// window returns the exploration bound for a barrier of kind k.
func (o Options) window(k memmodel.BarrierKind) int {
	if k == memmodel.WriteBarrier {
		return o.WriteWindow
	}
	if k == memmodel.ReadBarrier {
		return o.ReadWindow
	}
	// Full barriers order both; use the wider read window.
	if o.ReadWindow > o.WriteWindow {
		return o.ReadWindow
	}
	return o.WriteWindow
}

// Extractor extracts barrier sites from functions of one file.
type Extractor struct {
	table *ctypes.Table
	file  string
	opts  Options
}

// NewExtractor returns an extractor using the symbol table (which must
// include the analyzed file's declarations).
func NewExtractor(file string, table *ctypes.Table, opts Options) *Extractor {
	return &Extractor{table: table, file: file, opts: opts}
}

// object builds the (struct, field) tuple, canonicalizing both strings
// through the shared identifier table when one is configured.
func (e *Extractor) object(structName, field string) Object {
	if s := e.opts.Syms; s != nil {
		return Object{Struct: s.Canon(structName), Field: s.Canon(field)}
	}
	return Object{Struct: structName, Field: field}
}

// barrierInfo describes the barrier-ness of a unit.
type barrierInfo struct {
	name string
	kind memmodel.BarrierKind
	seq  bool
	call *cast.CallExpr
}

// classifyUnit reports the barrier calls in a unit, plus whether the unit has
// barrier semantics (stopping exploration) and whether it is a wake-up.
func classifyUnit(u *cfg.Unit, opts Options) (barriers []barrierInfo, semantics bool, wakeup bool) {
	root := u.Root()
	if root == nil {
		return nil, false, false
	}
	for _, call := range cast.Calls(root) {
		name := call.FunName()
		if name == "" {
			continue
		}
		if p := memmodel.Barrier(name); p != nil {
			barriers = append(barriers, barrierInfo{name: name, kind: p.Kind, call: call})
			semantics = true
			continue
		}
		if sk := memmodel.SeqcountKind(name); sk != memmodel.None {
			barriers = append(barriers, barrierInfo{name: name, kind: sk, seq: true, call: call})
			semantics = true
			continue
		}
		if opts.boundsHere(name, u) {
			semantics = true
		}
		if opts.isWakeUp(name) {
			wakeup = true
		}
	}
	return barriers, semantics, wakeup
}

// ExtractFn returns the barrier sites of fn.
func (e *Extractor) ExtractFn(fn *cast.FuncDecl) []*Site {
	if fn.Body == nil {
		return nil
	}
	return e.extractUnits(fn, e.linearize(fn))
}

// linearize builds the function's statement stream (the distance domain of
// the exploration windows), honoring the inlining options.
func (e *Extractor) linearize(fn *cast.FuncDecl) []*cfg.Unit {
	return cfg.Linearize(fn, cfg.LinearizeOptions{
		Table:        e.table,
		InlineDepth:  e.opts.InlineDepth,
		MaxUnits:     e.opts.MaxUnits,
		Resolve:      e.opts.Resolve,
		ResolveDepth: e.opts.InterprocDepth,
	})
}

// extractUnits runs window exploration over a pre-linearized stream.
func (e *Extractor) extractUnits(fn *cast.FuncDecl, units []*cfg.Unit) []*Site {
	// Pre-classify all units once.
	type uinfo struct {
		barriers []barrierInfo
		sem      bool
		wake     bool
	}
	infos := make([]uinfo, len(units))
	for i, u := range units {
		b, s, w := classifyUnit(u, e.opts)
		infos[i] = uinfo{barriers: b, sem: s, wake: w}
	}

	// Scope cache per containing function (root vs inlined callees).
	scopes := map[*cast.FuncDecl]*ctypes.Scope{}
	scopeOf := func(u *cfg.Unit) *ctypes.Scope {
		if sc, ok := scopes[u.Fn]; ok {
			return sc
		}
		sc := e.table.NewScope(u.Fn)
		scopes[u.Fn] = sc
		return sc
	}

	// Memoize the raw accesses of each unit. Overlapping windows of nearby
	// barriers previously re-walked the same unit's expression tree once per
	// site; now the walk happens at most once per unit, and each site gets a
	// cheap slab-backed copy carrying its own Distance/Before.
	raw := make([][]*Access, len(units))
	rawDone := make([]bool, len(units))
	rawOf := func(j int) []*Access {
		if !rawDone[j] {
			raw[j] = e.unitAccesses(units[j], scopeOf(units[j]))
			rawDone[j] = true
		}
		return raw[j]
	}
	var slab []Access
	cloneAt := func(a *Access, dist int, before bool) *Access {
		if len(slab) == cap(slab) {
			slab = make([]Access, 0, 128)
		}
		slab = slab[:len(slab)+1]
		c := &slab[len(slab)-1]
		*c = *a
		c.Distance, c.Before = dist, before
		return c
	}

	var sites []*Site
	for i, u := range units {
		for _, b := range infos[i].barriers {
			site := &Site{
				File: e.file, Fn: fn, Name: b.name, Kind: b.kind, Seq: b.seq,
				Unit: u, Call: b.call, Pos: b.call.Position,
				WakeUpAfter: -1, NextBarrierAfter: -1,
			}
			window := e.opts.window(b.kind)

			// Accesses at distance 0: combined primitives such as
			// smp_store_release(&x->f, v) and smp_load_acquire(&x->f).
			e.combinedAccess(site, b, u, scopeOf(u))
			// Seqcount API calls access the sequence counter internally;
			// synthesize that access so pairing sees the Figure 5 shape.
			if b.seq {
				e.seqAccess(site, b, u, scopeOf(u))
			}

			// Backward exploration.
			for j := i - 1; j >= 0 && i-j <= window; j-- {
				if len(infos[j].barriers) > 0 || infos[j].sem {
					break // bounded at other barriers (§4.2)
				}
				for _, a := range rawOf(j) {
					site.Before = append(site.Before, cloneAt(a, i-j, true))
				}
			}
			// Forward exploration.
			for j := i + 1; j < len(units) && j-i <= window; j++ {
				if len(infos[j].barriers) > 0 || infos[j].sem {
					site.NextBarrierAfter = j - i
					site.NextBarrierName = firstBarrierName(units[j], infos[j].barriers, e.opts)
					if infos[j].wake && site.WakeUpAfter < 0 {
						site.WakeUpAfter = j - i
					}
					break
				}
				if infos[j].wake && site.WakeUpAfter < 0 {
					site.WakeUpAfter = j - i
				}
				for _, a := range rawOf(j) {
					site.After = append(site.After, cloneAt(a, j-i, false))
				}
			}
			sortByDistance(site.Before)
			sortByDistance(site.After)
			sites = append(sites, site)
		}
	}
	return sites
}

func firstBarrierName(u *cfg.Unit, barriers []barrierInfo, opts Options) string {
	if len(barriers) > 0 {
		return barriers[0].name
	}
	for _, call := range cast.Calls(u.Root()) {
		if name := call.FunName(); name != "" && (opts.hasSemantics(name) || opts.isWakeUp(name)) {
			return name
		}
	}
	return ""
}

func sortByDistance(as []*Access) {
	// Insertion sort: windows are small and mostly ordered already.
	for i := 1; i < len(as); i++ {
		for j := i; j > 0 && as[j].Distance < as[j-1].Distance; j-- {
			as[j], as[j-1] = as[j-1], as[j]
		}
	}
}

// ExtractFile returns the sites of every function in f, deduplicated by
// canonical barrier identity: a barrier inside a small same-file callee is
// seen both in the callee and, inlined, in each caller; the site whose
// window captured the most accesses wins (ties favor the lexically owning
// function).
func (e *Extractor) ExtractFile(f *cast.File) []*Site {
	return e.ExtractFileCtx(context.Background(), f)
}

// ExtractFileCtx is ExtractFile under a context: when ctx carries an
// obs.Tracer, the run is recorded as an "extract.file" span with a "cfg"
// child covering the control-flow linearization of every function,
// counting the stream units built and the barrier sites found. ctx is
// polled before each function; once it is done the extraction stops and
// returns nil.
func (e *Extractor) ExtractFileCtx(ctx context.Context, f *cast.File) []*Site {
	ctx, sp := obs.Start(ctx, "extract.file")
	defer sp.End()
	sp.SetAttr("file", e.file)

	fns := f.Functions()
	// Stage "cfg": build every function's linearized stream up front so the
	// CFG cost is visible separately from window exploration.
	_, csp := obs.Start(ctx, "cfg")
	streams := make([][]*cfg.Unit, len(fns))
	totalUnits := 0
	for i, fn := range fns {
		if ctx.Err() != nil {
			csp.End()
			return nil
		}
		if fn.Body == nil {
			continue
		}
		streams[i] = e.linearize(fn)
		totalUnits += len(streams[i])
	}
	csp.Add("functions", int64(len(fns)))
	csp.Add("units", int64(totalUnits))
	csp.End()

	var all []*Site
	for i, fn := range fns {
		if ctx.Err() != nil {
			return nil
		}
		if fn.Body == nil {
			continue
		}
		all = append(all, e.extractUnits(fn, streams[i])...)
	}
	out := dedupRichest(all)
	sp.Add("sites", int64(len(out)))
	return out
}

// dedupRichest collapses sites sharing a canonical barrier identity,
// keeping the richest view per the ExtractFile contract.
func dedupRichest(all []*Site) []*Site {
	best := map[string]*Site{}
	var order []string
	for _, s := range all {
		id := s.ID()
		cur, ok := best[id]
		if !ok {
			best[id] = s
			order = append(order, id)
			continue
		}
		if s.Richness() > cur.Richness() {
			best[id] = s
		}
	}
	out := make([]*Site, 0, len(order))
	for _, id := range order {
		out = append(out, best[id])
	}
	return out
}

// Richness scores how much context a site's window captured. Deduplication
// of the same physical barrier — per file here, and globally across files in
// interprocedural mode — keeps the richest view.
func (s *Site) Richness() int {
	r := len(s.Before) + len(s.After)
	if s.Unit != nil && s.Unit.InlinedFrom == "" {
		r++ // prefer the lexical owner on ties
	}
	return r
}

// combinedAccess records the distance-0 access of combined primitives.
func (e *Extractor) combinedAccess(site *Site, b barrierInfo, u *cfg.Unit, sc *ctypes.Scope) {
	p := memmodel.Barrier(b.name)
	if p == nil || !p.HasAccess || len(b.call.Args) == 0 {
		return
	}
	// First argument is &x->f or x->f.
	arg := b.call.Args[0]
	if ue, ok := arg.(*cast.UnaryExpr); ok && ue.Op == ctoken.Amp {
		arg = ue.X
	}
	fe, ok := arg.(*cast.FieldExpr)
	if !ok {
		return
	}
	owner := sc.FieldOwner(fe)
	if owner == "" {
		return
	}
	kind := Load
	if p.AccessIsWrite {
		kind = Store
	}
	a := &Access{
		Object: e.object(owner, fe.Name), Kind: kind,
		Unit: u, Distance: 0, Before: p.AccessBefore, Expr: fe, Pos: fe.Position,
	}
	if p.AccessBefore {
		site.Before = append(site.Before, a)
	} else {
		site.After = append(site.After, a)
	}
	// The value argument of a store may itself read fields.
	if p.AccessIsWrite && len(b.call.Args) > 1 {
		for _, sub := range e.exprAccesses(b.call.Args[1], u, sc, Load, false) {
			sub.Distance = 0
			sub.Before = true
			site.Before = append(site.Before, sub)
		}
	}
}

// seqAccess synthesizes the sequence-counter access hidden inside a
// seqcount API call. The object is keyed by the argument's resolved type
// (e.g. seqcount_t) and the conventional field name "sequence"; the access
// side follows the kernel implementation (memmodel.SeqcountAccessAfter).
func (e *Extractor) seqAccess(site *Site, b barrierInfo, u *cfg.Unit, sc *ctypes.Scope) {
	structName := "seqcount"
	if len(b.call.Args) > 0 {
		arg := b.call.Args[0]
		if ue, ok := arg.(*cast.UnaryExpr); ok && ue.Op == ctoken.Amp {
			arg = ue.X
		}
		if ty := sc.ExprType(arg).Deref(); ty != nil && ty.Name != "" {
			structName = ty.Name
		}
	}
	kind := Load
	if b.kind == memmodel.WriteBarrier {
		kind = Store
	}
	after := memmodel.SeqcountAccessAfter(b.name)
	a := &Access{
		Object: e.object(structName, "sequence"),
		Kind:   kind, Unit: u, Distance: 0, Before: !after, Pos: b.call.Position,
	}
	if after {
		site.After = append(site.After, a)
	} else {
		site.Before = append(site.Before, a)
	}
}

// unitAccesses classifies all field accesses in one unit.
func (e *Extractor) unitAccesses(u *cfg.Unit, sc *ctypes.Scope) []*Access {
	root := u.Root()
	if root == nil {
		return nil
	}
	switch x := root.(type) {
	case *cast.ExprStmt:
		return e.exprAccesses(x.X, u, sc, Load, false)
	case *cast.DeclStmt:
		if x.Init != nil {
			return e.exprAccesses(x.Init, u, sc, Load, false)
		}
		return nil
	case *cast.ReturnStmt:
		if x.Value != nil {
			return e.exprAccesses(x.Value, u, sc, Load, false)
		}
		return nil
	case cast.Expr:
		return e.exprAccesses(x, u, sc, Load, false)
	}
	return nil
}

// exprAccesses walks an expression, classifying field accesses. ctxKind is
// the access kind the surrounding context imposes (Store for assignment
// targets); once marks READ_ONCE/WRITE_ONCE context.
func (e *Extractor) exprAccesses(expr cast.Expr, u *cfg.Unit, sc *ctypes.Scope, ctxKind Kind, once bool) []*Access {
	var out []*Access
	add := func(fe *cast.FieldExpr, kind Kind, onceHere bool) {
		owner := sc.FieldOwner(fe)
		if owner == "" {
			return
		}
		out = append(out, &Access{
			Object: e.object(owner, fe.Name),
			Kind:   kind, Unit: u, Expr: fe, Once: onceHere, Pos: fe.Position,
		})
	}
	var walk func(ex cast.Expr, kind Kind, onceCtx bool)
	walk = func(ex cast.Expr, kind Kind, onceCtx bool) {
		switch x := ex.(type) {
		case nil:
			return
		case *cast.Ident, *cast.Lit, *cast.SizeofTypeExpr:
			return
		case *cast.FieldExpr:
			add(x, kind, onceCtx)
			// The base chain is read regardless of the access kind of the
			// final field ("a->b->c = 1" loads (A,b)).
			walk(x.X, Load, false)
		case *cast.IndexExpr:
			// "arr[i] = v": the array field itself carries the kind.
			walk(x.X, kind, onceCtx)
			walk(x.Index, Load, false)
		case *cast.AssignExpr:
			lhsKind := Store
			walk(x.X, lhsKind, onceCtx)
			if x.Op != ctoken.Assign {
				// Compound assignment also reads the target.
				walk(x.X, Load, onceCtx)
			}
			walk(x.Y, Load, false)
		case *cast.UnaryExpr:
			switch x.Op {
			case ctoken.PlusPlus, ctoken.MinusMinus:
				walk(x.X, Store, onceCtx)
				walk(x.X, Load, onceCtx)
			case ctoken.Amp:
				// Taking an address is not an access; barrier primitives
				// with &-arguments are handled by combinedAccess.
				walk(x.X, kind, onceCtx)
			case ctoken.Star:
				// "*p = v" writes through p; p itself is read.
				walk(x.X, kind, onceCtx)
			default:
				if x.Sizeof {
					return // sizeof does not evaluate its operand
				}
				walk(x.X, Load, onceCtx)
			}
		case *cast.PostfixExpr:
			walk(x.X, Store, onceCtx)
			walk(x.X, Load, onceCtx)
		case *cast.BinaryExpr:
			walk(x.X, Load, false)
			walk(x.Y, Load, false)
		case *cast.CondExpr:
			walk(x.Cond, Load, false)
			walk(x.Then, kind, false)
			walk(x.Else, kind, false)
		case *cast.CastExpr:
			walk(x.X, kind, onceCtx)
		case *cast.CommaExpr:
			walk(x.X, Load, false)
			walk(x.Y, kind, onceCtx)
		case *cast.InitListExpr:
			for _, el := range x.Elems {
				walk(el, Load, false)
			}
		case *cast.StmtExpr:
			if x.Block != nil {
				for _, s := range x.Block.Stmts {
					if es, ok := s.(*cast.ExprStmt); ok {
						walk(es.X, Load, false)
					}
				}
			}
		case *cast.CallExpr:
			name := x.FunName()
			switch {
			case name == memmodel.ReadOnce && len(x.Args) == 1:
				walk(x.Args[0], Load, true)
				return
			case name == memmodel.WriteOnce && len(x.Args) >= 1:
				walk(x.Args[0], Store, true)
				for _, a := range x.Args[1:] {
					walk(a, Load, false)
				}
				return
			case memmodel.IsBarrier(name):
				// Combined primitives are handled at the site level; do not
				// double count their accesses here.
				return
			}
			walk(x.Fun, Load, false)
			for _, a := range x.Args {
				walk(a, Load, false)
			}
		}
	}
	walk(expr, ctxKind, once)
	return out
}
