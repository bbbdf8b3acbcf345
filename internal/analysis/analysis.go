// Package analysis is a minimal, dependency-free analogue of
// golang.org/x/tools/go/analysis: just enough driver surface to run the
// repo's invariant checkers (cmd/hpmvet) over type-checked packages.
//
// The x/tools module is deliberately not vendored — the reproduction
// builds offline from the standard library alone — so this package
// defines the Analyzer/Pass/Diagnostic vocabulary itself. The shapes
// mirror x/tools closely enough that the analyzers would port to a real
// multichecker by swapping imports.
//
// Each analyzer encodes one of the repo's cross-cutting conventions
// (determinism, hot-path allocation discipline, telemetry hygiene) as a
// machine-checkable rule; see the sibling packages and the invariants
// index in docs/ARCHITECTURE.md.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer is one static check: a name, a documentation string, and a
// Run function applied to every package under analysis.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and CLI flags. It must
	// be a valid Go identifier.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run performs the check, reporting findings via Pass.Report. The
	// returned error aborts the whole run (reserved for internal
	// malfunctions, not findings).
	Run func(*Pass) error
}

// Pass carries one package's parsed and type-checked representation to
// an analyzer.
type Pass struct {
	// Fset maps token positions for every file in the pass.
	Fset *token.FileSet
	// Files are the package's parsed source files (tests excluded), or,
	// in hpmvet's syntax-only pass for hpmdirective, its test files.
	Files []*ast.File
	// Pkg is the type-checked package (nil in the syntax-only pass).
	Pkg *types.Package
	// TypesInfo holds expression types and identifier resolutions (nil in
	// the syntax-only pass).
	TypesInfo *types.Info
	// Report records one finding.
	Report func(Diagnostic)
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Reportf formats and reports a finding at pos. The analyzer name is
// stamped by the driver wrapper around Pass.Report.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// DeterministicPkgs lists the import paths whose code must be a pure
// function of its inputs: no wall clock, no ambient randomness, no
// environment reads, no order-dependent map iteration. These are the
// packages on the bit-identical replay path — every equivalence pin in
// the test suite (parallelism independence, snapshot/restore replay,
// byte-identical BENCH_scenarios.json) assumes them.
var DeterministicPkgs = map[string]bool{
	"hierctl/internal/approx":     true,
	"hierctl/internal/baseline":   true,
	"hierctl/internal/central":    true,
	"hierctl/internal/chaos":      true,
	"hierctl/internal/cluster":    true,
	"hierctl/internal/controller": true,
	"hierctl/internal/core":       true,
	"hierctl/internal/des":        true,
	"hierctl/internal/engine":     true,
	"hierctl/internal/llc":        true,
	"hierctl/internal/series":     true,
	"hierctl/internal/workload":   true,
}

// IsDeterministic reports whether the package at path carries the
// determinism contract.
func IsDeterministic(path string) bool { return DeterministicPkgs[path] }
