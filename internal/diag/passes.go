package diag

import (
	"fmt"
	"strings"

	"ofence/internal/cast"
	"ofence/internal/cfg"
	"ofence/internal/ctoken"
	"ofence/internal/lockset"
	"ofence/internal/memmodel"
	"ofence/internal/ofence"
)

// ---------------------------------------------------------------------------
// OF0001-OF0004: the paper's ordering-constraint deviations (§5, §7)

var (
	ruleMisplaced = Rule{ID: "OF0001", Name: "misplaced-access", Severity: Error,
		Help: "A shared object of a barrier pairing is read and written on the same side of both barriers; the access belongs on the other side (§5 deviation 1)."}
	ruleWrongType = Rule{ID: "OF0002", Name: "wrong-barrier-type", Severity: Error,
		Help: "A barrier of the wrong kind for the accesses it orders: a write barrier ordering only reads, or a read barrier ordering only writes (§5 deviation 2)."}
	ruleRepeatedRead = Rule{ID: "OF0003", Name: "repeated-read", Severity: Error,
		Help: "A variable correctly read relative to a read barrier and then racily re-read (§5 deviation 3)."}
	ruleMissingOnce = Rule{ID: "OF0004", Name: "missing-once", Severity: Warning,
		Help: "A concurrently accessed shared object lacking READ_ONCE/WRITE_ONCE annotation (§7 extension)."}
	ruleUnneeded = Rule{ID: "OF0005", Name: "unneeded-barrier", Severity: Warning,
		Help: "A barrier immediately followed by another barrier or by a call with barrier semantics; the first already orders everything the second does (§5.1)."}
	ruleLockset = Rule{ID: "OF0006", Name: "lockset-race", Severity: Note,
		Help: "Lockset baseline (Eraser/RacerX, §8): accesses to a shared object with an empty lock intersection and at least one write. High recall, low precision; reported as notes."}
	ruleBarrierInLoop = Rule{ID: "OF0007", Name: "barrier-in-loop", Severity: Note,
		Help: "A memory barrier executed on every iteration of a loop. Often the ordering is loop-invariant and the barrier can be hoisted; on hot paths repeated barriers are costly."}
	ruleDupBarrier = Rule{ID: "OF0008", Name: "duplicate-adjacent-barrier", Severity: Warning,
		Help: "Two adjacent barriers where the first already provides every ordering the second does; the second is redundant."}
)

// deviationsPass projects the analysis findings for the paper's deviations
// (misplaced access, wrong barrier type, repeated read, missing annotation)
// into diagnostics.
type deviationsPass struct{}

var deviationRuleOf = map[ofence.FindingKind]Rule{
	ofence.MisplacedAccess:  ruleMisplaced,
	ofence.WrongBarrierType: ruleWrongType,
	ofence.RepeatedRead:     ruleRepeatedRead,
	ofence.MissingOnce:      ruleMissingOnce,
}

func (deviationsPass) Rules() []Rule {
	return []Rule{ruleMisplaced, ruleWrongType, ruleRepeatedRead, ruleMissingOnce}
}

func (deviationsPass) Run(ctx *Context) []Diagnostic {
	var out []Diagnostic
	for _, f := range ctx.Result.Findings {
		r, ok := deviationRuleOf[f.Kind]
		if !ok {
			continue
		}
		out = append(out, findingDiag(f, r))
	}
	return out
}

// unneededPass projects the §5.1 unneeded-barrier findings.
type unneededPass struct{}

func (unneededPass) Rules() []Rule { return []Rule{ruleUnneeded} }

func (unneededPass) Run(ctx *Context) []Diagnostic {
	var out []Diagnostic
	for _, f := range ctx.Result.Findings {
		if f.Kind == ofence.UnneededBarrier {
			out = append(out, findingDiag(f, ruleUnneeded))
		}
	}
	return out
}

// findingDiag converts one analysis finding, anchored at the offending
// access when there is one and at the barrier site otherwise.
func findingDiag(f *ofence.Finding, r Rule) Diagnostic {
	p := f.Site.Pos
	if f.Access != nil {
		p = f.Access.Pos
	}
	file, line, col := pos(p, f.Site.File)
	msg := f.Explanation
	if f.SuggestedBarrier != "" {
		msg += " (suggest " + f.SuggestedBarrier + ")"
	}
	return Diagnostic{
		RuleID: r.ID, Severity: r.Severity,
		File: file, Line: line, Col: col,
		Function: f.Site.Fn.Name, Message: msg,
		Confidence: f.Confidence,
	}
}

// ---------------------------------------------------------------------------
// OF0006: lockset baseline

type locksetPass struct{}

func (locksetPass) Rules() []Rule { return []Rule{ruleLockset} }

func (locksetPass) Run(ctx *Context) []Diagnostic {
	rep := lockset.Analyze(ctx.Files)
	var out []Diagnostic
	for _, w := range rep.Warnings {
		file, line, col := pos(w.Pos, "")
		out = append(out, Diagnostic{
			RuleID: ruleLockset.ID, Severity: ruleLockset.Severity,
			File: file, Line: line, Col: col,
			Function: strings.Join(w.Functions, ", "),
			Message: fmt.Sprintf("potential race on %s between %s (no common lock, %d writes)",
				w.Object, strings.Join(w.Functions, ", "), w.Writes),
		})
	}
	return out
}

// ---------------------------------------------------------------------------
// OF0007: barrier executed on every loop iteration

type barrierInLoopPass struct{}

func (barrierInLoopPass) Rules() []Rule { return []Rule{ruleBarrierInLoop} }

func (barrierInLoopPass) Run(ctx *Context) []Diagnostic {
	var out []Diagnostic
	seen := map[string]bool{}
	for _, fu := range ctx.Files {
		for _, fn := range fu.AST.Functions() {
			if fn.Body == nil {
				continue
			}
			cast.Walk(fn.Body, func(n cast.Node) bool {
				var body cast.Stmt
				switch x := n.(type) {
				case *cast.WhileStmt:
					body = x.Body
				case *cast.ForStmt:
					body = x.Body
				case *cast.DoWhileStmt:
					body = x.Body
				default:
					return true
				}
				for _, call := range cast.Calls(body) {
					name := call.FunName()
					if !memmodel.IsBarrier(name) {
						continue
					}
					file, line, col := pos(call.Position, fu.Name)
					key := fmt.Sprintf("%s:%d:%d", file, line, col)
					if seen[key] {
						continue // already reported for an outer loop
					}
					seen[key] = true
					out = append(out, Diagnostic{
						RuleID: ruleBarrierInLoop.ID, Severity: ruleBarrierInLoop.Severity,
						File: file, Line: line, Col: col, Function: fn.Name,
						Message: fmt.Sprintf("%s executes on every loop iteration; hoist it if the ordering is loop-invariant", name),
					})
				}
				return true
			})
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// OF0008: duplicate adjacent barrier

type dupBarrierPass struct{}

func (dupBarrierPass) Rules() []Rule { return []Rule{ruleDupBarrier} }

// covers reports whether a barrier of kind a makes an immediately following
// barrier of kind b redundant.
func covers(a, b memmodel.BarrierKind) bool {
	return a == b || a == memmodel.FullBarrier
}

func (dupBarrierPass) Run(ctx *Context) []Diagnostic {
	var out []Diagnostic
	for _, fu := range ctx.Files {
		for _, fn := range fu.AST.Functions() {
			if fn.Body == nil {
				continue
			}
			// Scan per basic block: only straight-line adjacency counts (a
			// conditional barrier before an unconditional one is not a
			// duplicate).
			for _, blk := range cfg.Build(fn).Blocks {
				var prevName string
				var prevKind memmodel.BarrierKind
				var prevSet bool
				for _, u := range blk.Units {
					name, kind, p, isBarrier := unitBarrier(u)
					if isBarrier && prevSet && covers(prevKind, kind) {
						file, line, col := pos(p, fu.Name)
						out = append(out, Diagnostic{
							RuleID: ruleDupBarrier.ID, Severity: ruleDupBarrier.Severity,
							File: file, Line: line, Col: col, Function: fn.Name,
							Message: fmt.Sprintf("%s is redundant: the preceding %s already provides this ordering", name, prevName),
						})
					}
					prevName, prevKind, prevSet = name, kind, isBarrier
				}
			}
		}
	}
	return out
}

// unitBarrier reports whether the unit is a bare barrier-primitive call.
func unitBarrier(u *cfg.Unit) (name string, kind memmodel.BarrierKind, p ctoken.Position, ok bool) {
	call, isCall := u.Expr.(*cast.CallExpr)
	if !isCall || u.Kind != cfg.UnitStmt {
		return "", memmodel.None, ctoken.Position{}, false
	}
	prim := memmodel.Barrier(call.FunName())
	if prim == nil || prim.HasAccess {
		// Combined primitives (store_release/load_acquire) do real work; only
		// pure fences can be duplicates.
		return "", memmodel.None, ctoken.Position{}, false
	}
	return call.FunName(), prim.Kind, call.Position, true
}
