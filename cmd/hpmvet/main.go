// Command hpmvet is the repo's static-analysis multichecker: it runs
// the internal/analysis suite — the machine-checkable forms of the
// conventions every equivalence pin depends on — over Go packages.
//
// Usage (patterns default to ./...):
//
//	go run ./cmd/hpmvet ./...              # the CI gate: analyze the tree
//	go run ./cmd/hpmvet -pins <group> ./... # list a pin group
//
// -pins prints the members of one //hpm:pin group (directive.PinGroups
// names them; an unknown name lists them) as `dir Name` lines, sorted, for
// a CI step to run by name and count; it refuses to list while any test
// file's directives are malformed.
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
//	hpmdirective    every //hpm: annotation parses (no typo'd escapes),
//	                and every //hpm:pin names a group and sits on a test
//	                go test runs; the one analyzer that also reads test
//	                files, parsed but not type-checked
//
// Exit status: 0 clean, 1 diagnostics reported, 2 internal failure.
package main

import (
	"flag"
	"fmt"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"hierctl/internal/analysis"
	"hierctl/internal/analysis/directive"
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
	group := flag.String("pins", "", "print the `group`'s pinned tests as dir Name lines instead of analyzing")
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	if *group != "" {
		os.Exit(listPins(*group, patterns))
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

// analyze runs the whole suite over one package's production files and
// hpmdirective over its test files, stamping analyzer names and ordering
// diagnostics by position.
func analyze(pkg *load.Package) ([]analysis.Diagnostic, error) {
	var diags []analysis.Diagnostic
	run := func(a *analysis.Analyzer, pass analysis.Pass) error {
		pass.Fset = pkg.Fset
		pass.Report = func(d analysis.Diagnostic) {
			d.Analyzer = a.Name
			diags = append(diags, d)
		}
		if err := a.Run(&pass); err != nil {
			return fmt.Errorf("%s: %s: %v", a.Name, pkg.Path, err)
		}
		return nil
	}
	for _, a := range analyzers {
		if err := run(a, analysis.Pass{Files: pkg.Files, Pkg: pkg.Pkg, TypesInfo: pkg.Info}); err != nil {
			return nil, err
		}
	}
	if err := run(hpmdirective.Analyzer, analysis.Pass{Files: pkg.TestFiles}); err != nil {
		return nil, err
	}
	sort.SliceStable(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}

// listPins prints group's members, one `dir Name` line each (dir as go
// test takes it: ./internal/fleet, or . for the module root), sorted.
func listPins(group string, patterns []string) int {
	if !slices.Contains(directive.PinGroups, group) {
		fmt.Fprintf(os.Stderr, "hpmvet: unknown pin group %q (groups: %s)\n", group, strings.Join(directive.PinGroups, ", "))
		return 2
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "hpmvet: %v\n", err)
		return 2
	}
	pkgs, err := load.Packages(".", patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hpmvet: %v\n", err)
		return 2
	}
	var lines []string
	bad := 0
	for _, pkg := range pkgs {
		dir, err := filepath.Rel(wd, pkg.Dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hpmvet: %v\n", err)
			return 2
		}
		if dir = filepath.ToSlash(dir); dir != "." {
			dir = "./" + dir
		}
		for _, f := range pkg.TestFiles {
			m, problems := directive.ParseFile(pkg.Fset, f)
			for _, p := range problems {
				printDiags(os.Stderr, pkg.Fset, []analysis.Diagnostic{{Pos: p.Pos, Message: p.Message, Analyzer: hpmdirective.Analyzer.Name}})
			}
			bad += len(problems)
			for _, p := range m.Pins() {
				if p.Group == group {
					lines = append(lines, dir+" "+p.Func)
				}
			}
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "hpmvet: %d malformed directive(s) in test files; not listing\n", bad)
		return 1
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Println(l)
	}
	return 0
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
