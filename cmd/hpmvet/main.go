// Command hpmvet is the repo's static-analysis multichecker: it runs
// the internal/analysis suite — the machine-checkable forms of the
// conventions every equivalence pin depends on — over Go packages.
//
// Usage (the CI entry point; patterns default to ./...):
//
//	go run ./cmd/hpmvet ./...
//
// The analyzers:
//
//	simdeterminism  no wall clock / global rand / env / sleeps in
//	                deterministic simulation packages
//	maprange        no order-sensitive map iteration in those packages
//	hotalloc        no allocating constructs and no internal/par fan-out
//	                in //hpm:hotpath functions
//	metriclabel     constant, well-formed Prometheus registration;
//	                label values constant or //hpm:boundedlabel
//	hpmdirective    every //hpm: annotation parses (no typo'd escapes)
//
// Exit status: 0 clean, 1 diagnostics reported, 2 internal failure.
package main

import (
	"fmt"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"hierctl/internal/analysis"
	"hierctl/internal/analysis/hotalloc"
	"hierctl/internal/analysis/hpmdirective"
	"hierctl/internal/analysis/load"
	"hierctl/internal/analysis/maprange"
	"hierctl/internal/analysis/metriclabel"
	"hierctl/internal/analysis/simdeterminism"
)

// analyzers is the full suite, in reporting order.
var analyzers = []*analysis.Analyzer{
	simdeterminism.Analyzer,
	maprange.Analyzer,
	hotalloc.Analyzer,
	metriclabel.Analyzer,
	hpmdirective.Analyzer,
}

func main() {
	patterns := os.Args[1:]
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	os.Exit(standalone(patterns))
}

// standalone loads whole-module packages via go list and analyzes them.
func standalone(patterns []string) int {
	pkgs, err := load.Packages(".", patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hpmvet: %v\n", err)
		return 2
	}
	total := 0
	for _, pkg := range pkgs {
		diags, err := analyze(pkg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hpmvet: %v\n", err)
			return 2
		}
		total += len(diags)
		printDiags(os.Stdout, pkg.Fset, diags)
	}
	if total > 0 {
		fmt.Fprintf(os.Stderr, "hpmvet: %d diagnostic(s)\n", total)
		return 1
	}
	return 0
}

// analyze runs the whole suite over one package, stamping analyzer
// names and ordering diagnostics by position.
func analyze(pkg *load.Package) ([]analysis.Diagnostic, error) {
	var diags []analysis.Diagnostic
	for _, a := range analyzers {
		name := a.Name
		pass := &analysis.Pass{
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Pkg,
			TypesInfo: pkg.Info,
			Report: func(d analysis.Diagnostic) {
				d.Analyzer = name
				diags = append(diags, d)
			},
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %v", a.Name, pkg.Path, err)
		}
	}
	sort.SliceStable(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}

func printDiags(w io.Writer, fset *token.FileSet, diags []analysis.Diagnostic) {
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		file := pos.Filename
		if rel, err := filepath.Rel(".", file); err == nil && !strings.HasPrefix(rel, "..") {
			file = rel
		}
		fmt.Fprintf(w, "%s:%d:%d: %s: %s\n", file, pos.Line, pos.Column, d.Analyzer, d.Message)
	}
}
