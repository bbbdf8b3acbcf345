// Package analysistest runs an analyzer over a golden testdata package
// and checks its diagnostics against `// want "regexp"` comments — a
// minimal offline analogue of golang.org/x/tools/go/analysis/analysistest.
//
// Testdata lives GOPATH-style under testdata/src/<import-path>/*.go.
// Imports of other packages under testdata/src are type-checked from
// source (so a suite can ship stub dependencies under the import paths
// the analyzers key on); all other imports resolve to standard-library
// export data via `go list -export`.
//
// A `// want` comment expects one diagnostic per quoted regexp on its
// line:
//
//	x := time.Now() // want `time\.Now`
//
// Unmatched expectations and unexpected diagnostics both fail the test.
package analysistest

import (
	"fmt"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"hierctl/internal/analysis"
	"hierctl/internal/analysis/load"
)

// Run loads the package rooted at dir/src/<pkgPath>, applies the
// analyzer, and matches diagnostics against the package's want
// comments.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgPath string) {
	t.Helper()
	ld, err := newLoader(dir)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	pkg, err := ld.load(pkgPath)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	var got []analysis.Diagnostic
	pass := &analysis.Pass{
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Pkg,
		TypesInfo: pkg.Info,
		Report:    func(d analysis.Diagnostic) { got = append(got, d) },
	}
	if err := a.Run(pass); err != nil {
		t.Fatalf("analysistest: analyzer %s: %v", a.Name, err)
	}
	checkExpectations(t, pkg, got)
}

// loader resolves testdata-local packages from source and everything
// else from stdlib export data.
type loader struct {
	src     string
	fset    *token.FileSet
	pkgs    map[string]*load.Package
	stdlib  types.ImporterFrom
	loading map[string]bool
}

func newLoader(dir string) (*loader, error) {
	src := filepath.Join(dir, "src")
	ld := &loader{
		src:     src,
		fset:    token.NewFileSet(),
		pkgs:    map[string]*load.Package{},
		loading: map[string]bool{},
	}
	// Batch-resolve every non-testdata import reachable from testdata in
	// one `go list` run.
	ext, err := ld.externalImports()
	if err != nil {
		return nil, err
	}
	ld.stdlib, err = load.StdlibImporter(ld.fset, ext)
	if err != nil {
		return nil, err
	}
	return ld, nil
}

// externalImports scans every .go file under src for imports that do
// not resolve inside the testdata tree.
func (ld *loader) externalImports() ([]string, error) {
	seen := map[string]bool{}
	var out []string
	err := filepath.Walk(ld.src, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(ld.fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return fmt.Errorf("scan %s: %v", path, err)
		}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if p == "" || seen[p] || ld.isLocal(p) {
				continue
			}
			seen[p] = true
			out = append(out, p)
		}
		return nil
	})
	return out, err
}

func (ld *loader) isLocal(path string) bool {
	st, err := os.Stat(filepath.Join(ld.src, filepath.FromSlash(path)))
	return err == nil && st.IsDir()
}

// Import implements types.Importer over the two-tier resolution.
func (ld *loader) Import(path string) (*types.Package, error) {
	return ld.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom.
func (ld *loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if ld.isLocal(path) {
		pkg, err := ld.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Pkg, nil
	}
	return ld.stdlib.ImportFrom(path, dir, mode)
}

// load type-checks one testdata package (memoized).
func (ld *loader) load(pkgPath string) (*load.Package, error) {
	if pkg, ok := ld.pkgs[pkgPath]; ok {
		return pkg, nil
	}
	if ld.loading[pkgPath] {
		return nil, fmt.Errorf("import cycle through %s", pkgPath)
	}
	ld.loading[pkgPath] = true
	defer delete(ld.loading, pkgPath)
	dir := filepath.Join(ld.src, filepath.FromSlash(pkgPath))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("testdata package %s: %v", pkgPath, err)
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, e.Name())
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("testdata package %s: no .go files", pkgPath)
	}
	pkg, err := load.File(ld.fset, pkgPath, dir, files, ld)
	if err != nil {
		return nil, err
	}
	ld.pkgs[pkgPath] = pkg
	return pkg, nil
}

// expectation is one `// want` regexp at a file line.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
	met  bool
}

var wantRE = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

// checkExpectations matches diagnostics against want comments.
func checkExpectations(t *testing.T, pkg *load.Package, got []analysis.Diagnostic) {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				// Like x/tools analysistest, `// want` may be embedded in a
				// larger comment, so a directive under test can carry its own
				// expectation: `//hpm:walclock x // want "unknown"`.
				i := strings.Index(c.Text, "// want ")
				if i < 0 {
					continue
				}
				rest := c.Text[i+len("// want "):]
				pos := pkg.Fset.Position(c.Pos())
				for _, q := range wantRE.FindAllString(rest, -1) {
					pattern, err := unquote(q)
					if err != nil {
						t.Errorf("%s:%d: bad want pattern %s: %v", pos.Filename, pos.Line, q, err)
						continue
					}
					re, err := regexp.Compile(pattern)
					if err != nil {
						t.Errorf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pattern, err)
						continue
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re, raw: pattern})
				}
			}
		}
	}
	for _, d := range got {
		pos := pkg.Fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if !w.met && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.met = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s:%d: unexpected diagnostic: %s", pos.Filename, pos.Line, d.Message)
		}
	}
	for _, w := range wants {
		if !w.met {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.raw)
		}
	}
}

func unquote(q string) (string, error) {
	if strings.HasPrefix(q, "`") {
		return strings.Trim(q, "`"), nil
	}
	return strconv.Unquote(q)
}
