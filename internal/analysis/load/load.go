// Package load type-checks Go packages for the hpmvet analyzers using
// only the standard library: package metadata and export data come from
// `go list -export -json`, sources are parsed with go/parser, and
// dependencies are imported through the compiler ("gc") export-data
// importer. It is a small offline stand-in for x/tools/go/packages.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	// Path is the package's import path.
	Path string
	// Dir is the package's source directory.
	Dir string
	// Fset positions every file below.
	Fset *token.FileSet
	// Files are the parsed non-test sources.
	Files []*ast.File
	// TestFiles are the package's _test.go files (in-package and
	// external), parsed with comments but not type-checked.
	TestFiles []*ast.File
	// Pkg is the type-checked package object.
	Pkg *types.Package
	// Info holds expression types and identifier resolutions.
	Info *types.Info
}

// listPkg is the subset of `go list -json` output the loader needs.
type listPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	// TestGoFiles and XTestGoFiles are the in-package and external
	// _test.go files.
	TestGoFiles  []string
	XTestGoFiles []string
	Export       string
	Standard     bool
	DepOnly      bool
	Module       *struct{ Path string }
	Error        *struct{ Err string }
}

// goList runs `go list -deps -export -json patterns...` in dir and
// decodes the JSON stream.
func goList(dir string, patterns []string) ([]*listPkg, error) {
	args := append([]string{"list", "-deps", "-export", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("load: go list: %v\n%s", err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var pkgs []*listPkg
	for {
		p := new(listPkg)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("load: decode go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportImporter resolves imports from a path → export-data-file map
// using the standard library's gc importer.
type exportImporter struct {
	base    types.ImporterFrom
	exports map[string]string
}

func newExportImporter(fset *token.FileSet, exports map[string]string) *exportImporter {
	ei := &exportImporter{exports: exports}
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := ei.exports[path]
		if !ok {
			return nil, fmt.Errorf("load: no export data for %q", path)
		}
		return os.Open(f)
	}
	ei.base = importer.ForCompiler(fset, "gc", lookup).(types.ImporterFrom)
	return ei
}

func (ei *exportImporter) Import(path string) (*types.Package, error) {
	return ei.base.Import(path)
}

func (ei *exportImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	return ei.base.ImportFrom(path, dir, mode)
}

// Packages loads and type-checks the packages matching the patterns
// (e.g. "./...") relative to dir, excluding dependencies outside the
// main module. Test files are parsed but not type-checked: the
// invariants the type-aware analyzers enforce apply to production code,
// and tests legitimately read clocks and environments; only the
// directives in test files (the //hpm:pin lines) are read.
func Packages(dir string, patterns []string) ([]*Package, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := newExportImporter(fset, exportsOf(listed))
	var out []*Package
	for _, lp := range listed {
		if lp.DepOnly || lp.Standard || lp.Module == nil {
			continue
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("load: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		pkg, err := typecheck(fset, lp, imp)
		if err != nil {
			return nil, err
		}
		if pkg.TestFiles, err = parseFiles(fset, lp.Dir, append(lp.TestGoFiles, lp.XTestGoFiles...)); err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// File loads and type-checks a single package given its directory,
// import path, file list, and an importer for its dependencies — the
// entry point the analysistest harness shares with Packages.
func File(fset *token.FileSet, importPath, dir string, goFiles []string, imp types.ImporterFrom) (*Package, error) {
	return typecheck(fset, &listPkg{ImportPath: importPath, Dir: dir, GoFiles: goFiles}, imp)
}

// StdlibImporter returns an importer over the export data of the named
// standard library packages (plus their dependencies) — used by the
// analysistest harness to type-check testdata that imports the standard
// library.
func StdlibImporter(fset *token.FileSet, paths []string) (types.ImporterFrom, error) {
	var listed []*listPkg
	if len(paths) > 0 {
		var err error
		if listed, err = goList("", paths); err != nil {
			return nil, err
		}
	}
	return newExportImporter(fset, exportsOf(listed)), nil
}

// exportsOf maps each listed package that has export data to its file.
func exportsOf(listed []*listPkg) map[string]string {
	exports := map[string]string{}
	for _, lp := range listed {
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
	}
	return exports
}

// parseFiles parses the named files of dir with their comments.
func parseFiles(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(dir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("load: parse %s: %v", path, err)
		}
		files = append(files, f)
	}
	return files, nil
}

func typecheck(fset *token.FileSet, lp *listPkg, imp types.ImporterFrom) (*Package, error) {
	files, err := parseFiles(fset, lp.Dir, lp.GoFiles)
	if err != nil {
		return nil, err
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(lp.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("load: typecheck %s: %v", lp.ImportPath, err)
	}
	return &Package{Path: lp.ImportPath, Dir: lp.Dir, Fset: fset, Files: files, Pkg: tpkg, Info: info}, nil
}
