// Package diag is the pluggable diagnostics engine layered over the
// analysis: analyzer passes consume one ofence result and emit uniform
// diagnostics with stable rule IDs and severities, suitable for terminal
// output, JSON, or SARIF 2.1.0 export (sarif.go).
//
// Built-in passes cover the paper's checkers (ordering-constraint
// deviations, unneeded barriers, the lockset baseline) plus two syntactic
// lints (barrier-in-loop, duplicate-adjacent-barrier). Callers may run
// passes of their own next to them: Run and Rules take the pass list.
//
// Diagnostics can be suppressed in source with an "ofence:ignore" comment on
// the flagged line or the line above; an optional rule list ("ofence:ignore
// OF0005" or "ofence:ignore unneeded-barrier") restricts the suppression to
// those rules. Suppressed diagnostics are kept — marked, not dropped — so
// SARIF consumers see them as reviewed.
package diag

import (
	"sort"
	"strings"

	"ofence/internal/ctoken"
	"ofence/internal/ofence"
)

// Severity grades a diagnostic; the values are SARIF levels.
type Severity string

const (
	// Error marks likely bugs (the paper's deviations).
	Error Severity = "error"
	// Warning marks probable issues worth review.
	Warning Severity = "warning"
	// Note marks informational findings and high-recall baselines.
	Note Severity = "note"
)

// Rule describes one diagnostic kind with a stable ID.
type Rule struct {
	// ID is the stable machine identifier (OFnnnn), never reused.
	ID string
	// Name is the human-readable kebab-case rule name.
	Name string
	// Severity is the default severity of the rule's diagnostics.
	Severity Severity
	// Help is a one-paragraph description for rule metadata.
	Help string
}

// Diagnostic is one uniform finding.
type Diagnostic struct {
	RuleID   string   `json:"rule_id"`
	Severity Severity `json:"severity"`
	File     string   `json:"file"`
	Line     int      `json:"line"`
	Col      int      `json:"col,omitempty"`
	Function string   `json:"function,omitempty"`
	Message  string   `json:"message"`
	// Suppressed marks diagnostics silenced by an ofence:ignore comment.
	Suppressed bool `json:"suppressed,omitempty"`
	// Confidence is the ranking pass's score for the underlying finding
	// (internal/rank); 0 for diagnostics with no ranked finding behind them
	// (syntactic lints, baselines).
	Confidence float64 `json:"confidence,omitempty"`
}

// Context is everything a pass may consult.
type Context struct {
	// Result is the completed analysis.
	Result *ofence.Result
	// Files are the project's units after a completed analysis, each
	// with its AST.
	Files []*ofence.FileUnit
	// Sources maps file names to raw text, used for suppression comments;
	// files absent from the map simply have no suppressions.
	Sources map[string]string
	// Opts are the analysis options the result was produced with.
	Opts ofence.Options
}

// Pass is one pluggable analyzer.
type Pass interface {
	// Rules lists the rules the pass can emit.
	Rules() []Rule
	// Run produces the pass's diagnostics. Order does not matter: the
	// engine sorts globally.
	Run(ctx *Context) []Diagnostic
}

// DefaultPasses returns fresh instances of the built-in passes.
func DefaultPasses() []Pass {
	return []Pass{
		deviationsPass{},
		unneededPass{},
		locksetPass{},
		barrierInLoopPass{},
		dupBarrierPass{},
	}
}

// Rules returns the union of the passes' rules, sorted by ID.
func Rules(passes []Pass) []Rule {
	var out []Rule
	seen := map[string]bool{}
	for _, p := range passes {
		for _, r := range p.Rules() {
			if !seen[r.ID] {
				seen[r.ID] = true
				out = append(out, r)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Run executes the passes over ctx, applies source suppressions, and returns
// the diagnostics in canonical order.
func Run(ctx *Context, passes []Pass) []Diagnostic {
	var out []Diagnostic
	for _, p := range passes {
		out = append(out, p.Run(ctx)...)
	}
	applySuppressions(ctx.Sources, out)
	Sort(out)
	return out
}

// Sort is the single place diagnostic order is defined: by file, then line,
// then rule ID, then confidence (higher first, so the strongest evidence
// leads at equal positions), with column and message as final tie-breaks —
// every consumer — terminal, JSON, SARIF — sees the same deterministic
// sequence across runs.
func Sort(ds []Diagnostic) {
	sort.SliceStable(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.RuleID != b.RuleID {
			return a.RuleID < b.RuleID
		}
		if a.Confidence != b.Confidence {
			return a.Confidence > b.Confidence
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Message < b.Message
	})
}

// ---------------------------------------------------------------------------
// Suppressions

const ignoreMarker = "ofence:ignore"

// suppression is the parsed form of one ignore comment.
type suppression struct {
	// rules holds the rule IDs/names the comment names; empty means all.
	rules map[string]bool
}

func (s suppression) matches(d Diagnostic, names map[string]string) bool {
	if len(s.rules) == 0 {
		return true
	}
	return s.rules[d.RuleID] || s.rules[names[d.RuleID]]
}

// parseSuppressions scans one file's source for ignore comments. The
// returned map is keyed by the 1-based line the suppression applies to: a
// marker suppresses its own line and the line below it.
func parseSuppressions(src string) map[int][]suppression {
	out := map[int][]suppression{}
	for i, line := range strings.Split(src, "\n") {
		idx := strings.Index(line, ignoreMarker)
		if idx < 0 {
			continue
		}
		rest := line[idx+len(ignoreMarker):]
		// The rule list ends at the end of the comment.
		if end := strings.Index(rest, "*/"); end >= 0 {
			rest = rest[:end]
		}
		sup := suppression{rules: map[string]bool{}}
		for _, f := range strings.FieldsFunc(rest, func(r rune) bool {
			return r == ' ' || r == '\t' || r == ','
		}) {
			sup.rules[f] = true
		}
		lineNo := i + 1
		out[lineNo] = append(out[lineNo], sup)
		out[lineNo+1] = append(out[lineNo+1], sup)
	}
	return out
}

// applySuppressions marks diagnostics silenced by ignore comments.
func applySuppressions(sources map[string]string, ds []Diagnostic) {
	if len(sources) == 0 {
		return
	}
	parsed := map[string]map[int][]suppression{}
	names := ruleNameIndex()
	for i := range ds {
		d := &ds[i]
		sups, ok := parsed[d.File]
		if !ok {
			src, have := sources[d.File]
			if !have {
				parsed[d.File] = nil
				continue
			}
			sups = parseSuppressions(src)
			parsed[d.File] = sups
		}
		for _, s := range sups[d.Line] {
			if s.matches(*d, names) {
				d.Suppressed = true
				break
			}
		}
	}
}

// ruleNameIndex maps the built-in rule IDs to names for name-based
// suppressions.
func ruleNameIndex() map[string]string {
	out := map[string]string{}
	for _, r := range Rules(DefaultPasses()) {
		out[r.ID] = r.Name
	}
	return out
}

// pos picks the most precise location for a diagnostic: the given position's
// own file when it carries one (inlined units point into the callee's file),
// the site's file otherwise.
func pos(p ctoken.Position, fallbackFile string) (file string, line, col int) {
	file = p.File
	if file == "" {
		file = fallbackFile
	}
	return file, p.Line, p.Col
}
