// Package ofence is the public API of OFence-Go, a reproduction of
// "OFence: Pairing Barriers to Find Concurrency Bugs in the Linux Kernel"
// (Lepers, Giet, Lawall, Zwaenepoel — EuroSys 2023).
//
// OFence infers which lockless functions may run concurrently by pairing
// memory barriers through the shared objects — (struct type, field name)
// tuples — accessed around them, then checks the paired code for ordering
// deviations and generates fixes.
//
// Basic use:
//
//	proj := ofence.NewProject()
//	ofence.RegisterKernelHeaders(proj) // resolve #include <linux/...>
//	proj.AddSource("drivers/foo.c", src) // records the file
//	res, err := proj.AnalyzeParallel(ctx, ofence.DefaultOptions())
//	if err != nil {
//		return err // ctx was canceled or timed out
//	}
//	for _, pg := range res.Pairings {
//		fmt.Println(pg) // inferred concurrency
//	}
//	for _, f := range res.Findings {
//		p, err := ofence.GeneratePatch(f) // unified diff + rationale
//		v, err := ofence.ValidateFinding(f) // litmus confirmation
//		...
//	}
//
// The analysis internals live under internal/: the C frontend (ctoken, cpp,
// cparser, ctypes, cfg), the core analysis (access, ofence), patching
// (patch), the weak-memory simulator (litmus), the lockset baseline
// (lockset), and the evaluation harness (corpus, report). This package
// re-exports the stable surface.
package ofence

import (
	"ofence/internal/kernelhdr"
	"ofence/internal/ofence"
	"ofence/internal/patch"
	"ofence/internal/validate"
)

// Project is a set of C files analyzed together. AddSource, AddSources and
// ReplaceSource only record sources; Project.AnalyzeParallel(ctx, opts) is
// the one call that preprocesses, parses and analyzes them. It fans the
// per-file work and per-pairing checking out across a bounded worker pool
// and honors cancellation and deadlines; the ofence-serve daemon and the
// CLIs route through it. All methods are safe for concurrent use; analyses
// of one Project are serialized internally, so concurrent analyses of the
// same file set should each use Project.Clone.
type Project = ofence.Project

// SourceFile is one named C source for Project.AddSources, which records a
// batch of files in the order given; a repeated name keeps its first
// position and its last source.
type SourceFile = ofence.SourceFile

// Options configures the analysis; DefaultOptions returns the paper's
// parameters (windows of 5/50 statements, pairing threshold 2, generic-type
// filter on, §7 annotation checking on).
type Options = ofence.Options

// Result is the outcome of Project.AnalyzeParallel: barrier sites, pairings,
// unpaired and implicit-IPC barriers, and findings.
type Result = ofence.Result

// Pairing is a set of barrier sites inferred to run concurrently.
type Pairing = ofence.Pairing

// Finding is one detected deviation (§5) or annotation suggestion (§7).
type Finding = ofence.Finding

// FindingKind classifies findings.
type FindingKind = ofence.FindingKind

// Finding kinds, named as in the paper.
const (
	// MisplacedAccess is deviation #1 (§5.2).
	MisplacedAccess = ofence.MisplacedAccess
	// WrongBarrierType is deviation #2.
	WrongBarrierType = ofence.WrongBarrierType
	// RepeatedRead is deviation #3.
	RepeatedRead = ofence.RepeatedRead
	// UnneededBarrier is the §5.1 unpaired-barrier check.
	UnneededBarrier = ofence.UnneededBarrier
	// MissingOnce is the §7 READ_ONCE/WRITE_ONCE extension.
	MissingOnce = ofence.MissingOnce
)

// FileUnit is one translation unit of a Project; its AST, symbol table,
// barrier sites and parse errors are filled in by analysis.
type FileUnit = ofence.FileUnit

// ResultView is the JSON-friendly projection of a Result (Result.View).
type ResultView = ofence.ResultView

// Patch is a generated fix: rewritten function, unified diff, rationale.
type Patch = patch.Patch

// Verdict is the litmus confirmation of a finding.
type Verdict = validate.Verdict

// NewProject returns an empty project.
func NewProject() *Project { return ofence.NewProject() }

// DefaultOptions returns the paper's analysis parameters.
func DefaultOptions() Options { return ofence.DefaultOptions() }

// RegisterKernelHeaders adds the bundled miniature kernel include tree to a
// project so that sources may #include <linux/...>.
func RegisterKernelHeaders(p *Project) { kernelhdr.Register(p) }

// GeneratePatch produces the mechanical fix for a finding as a unified diff
// with the explanatory rationale of §5.4.
func GeneratePatch(f *Finding) (*Patch, error) { return patch.Generate(f) }

// GeneratePatches produces patches for every finding, collecting the ones
// that need manual intervention as errors.
func GeneratePatches(findings []*Finding) ([]*Patch, []error) {
	return patch.GenerateAll(findings)
}

// ValidateFinding litmus-checks a finding under the weak memory model: the
// deviation must admit a bad observable state as written, and the suggested
// fix must eliminate it.
func ValidateFinding(f *Finding) (*Verdict, error) { return validate.Check(f) }

// ValidateFindings checks every checkable finding.
func ValidateFindings(findings []*Finding) []*Verdict { return validate.CheckAll(findings) }
