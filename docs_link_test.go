package hierctl

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"hierctl/internal/analysis/directive"
)

// markdownLink matches inline markdown links [text](target). Reference
// definitions and autolinks are out of scope — the repo's docs use the
// inline form.
var markdownLink = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

// TestDocsRelativeLinks fails on broken relative links in README.md and
// everything under docs/ — the docs check CI runs. External links
// (schemes) and pure in-page anchors are skipped; anchors on relative
// targets are stripped before the existence check.
func TestDocsRelativeLinks(t *testing.T) {
	var files []string
	if _, err := os.Stat("README.md"); err == nil {
		files = append(files, "README.md")
	}
	_ = filepath.WalkDir("docs", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if !d.IsDir() && strings.HasSuffix(path, ".md") {
			files = append(files, path)
		}
		return nil
	})
	if len(files) == 0 {
		t.Fatal("no documentation files found")
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range markdownLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue
			}
			if strings.HasPrefix(target, "#") {
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			resolved := filepath.Join(filepath.Dir(file), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken relative link %q (resolved %s)", file, m[1], resolved)
			}
		}
	}
}

var (
	// prCitation matches a change-history citation such as "PR 23".
	prCitation = regexp.MustCompile(`\bPR \d+`)
	// paperMapHeading matches a heading introducing a paper-to-package
	// map, however it is worded ("Paper § → package map",
	// "Paper-to-package map").
	paperMapHeading = regexp.MustCompile(`(?mi)^#+ .*paper.*package map`)
	// ciMention matches a CI step or job named in a doc: CI `name`, the
	// two words possibly on two lines.
	ciMention = regexp.MustCompile("\\bCI\\s+`([^`]+)`")
	// ciStep and ciJob match a step's name and a job's key in the workflow.
	ciStep = regexp.MustCompile(`(?m)^\s+- name: (.+)$`)
	ciJob  = regexp.MustCompile(`(?m)^  ([\w-]+):\s*$`)
	// testMention matches a test, fuzz target or benchmark named in a
	// doc, `TestX`; testDecl matches one declared in a _test.go file.
	testMention = regexp.MustCompile("`((?:Test|Fuzz|Benchmark)\\w+)`")
	testDecl    = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w+)\(`)
	// pinGroupMention matches a pin group named in a doc: the `x` pin
	// group, the words possibly on two lines.
	pinGroupMention = regexp.MustCompile("`(\\w+)`\\s+pin\\s+group")
	// memberMention matches a member of a type named in a doc, `T.M`.
	memberMention = regexp.MustCompile("`(\\w+)\\.(\\w+)(?:\\(\\))?`")
)

// declaredMembers parses the module's non-test Go files and returns a
// lookup of their types' members: for a type name T (an alias included)
// the lookup reports whether T is declared and whether it has the member
// M, as a method, struct field or interface method, or through an
// embedded field (named by its type) or the type an alias names. Types
// are keyed by name alone, so same-named types of two packages pool their
// members. A T that is also the name of one of the module's packages
// reports no type: `series.SubSteps` names a function, not a member.
func declaredMembers(t *testing.T) func(typ, member string) (isType, declared bool) {
	members, packages := map[string]map[string]bool{}, map[string]bool{}
	// inherits holds T's embedded types and the type its alias names.
	inherits := map[string][]string{}
	// typeName is the T of T, *T, pkg.T and T[P].
	typeName := func(e ast.Expr) string {
		for {
			switch x := e.(type) {
			case *ast.StarExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.IndexListExpr:
				e = x.X
			case *ast.SelectorExpr:
				return x.Sel.Name
			case *ast.Ident:
				return x.Name
			default:
				return ""
			}
		}
	}
	add := func(typ, member string) {
		if members[typ] == nil {
			members[typ] = map[string]bool{}
		}
		if member != "" {
			members[typ][member] = true
		}
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != "."):
			return filepath.SkipDir
		case !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		packages[file.Name.Name] = true
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv != nil {
				add(typeName(fn.Recv.List[0].Type), fn.Name.Name)
			}
			gen, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gen.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				name := ts.Name.Name
				add(name, "")
				var list *ast.FieldList
				switch x := ts.Type.(type) {
				case *ast.StructType:
					list = x.Fields
				case *ast.InterfaceType:
					list = x.Methods
				default:
					if ts.Assign.IsValid() {
						inherits[name] = append(inherits[name], typeName(x))
					}
				}
				if list == nil {
					continue
				}
				for _, f := range list.List {
					for _, n := range f.Names {
						add(name, n.Name)
					}
					if len(f.Names) == 0 {
						add(name, typeName(f.Type))
						inherits[name] = append(inherits[name], typeName(f.Type))
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var has func(typ, member string, seen map[string]bool) bool
	has = func(typ, member string, seen map[string]bool) bool {
		if seen[typ] {
			return false
		}
		seen[typ] = true
		if members[typ][member] {
			return true
		}
		for _, e := range inherits[typ] {
			if has(e, member, seen) {
				return true
			}
		}
		return false
	}
	return func(typ, member string) (bool, bool) {
		return members[typ] != nil && !packages[typ], has(typ, member, map[string]bool{})
	}
}

// TestDocsDescribeThePresent keeps README.md and docs/ARCHITECTURE.md
// about the current code: history lives in CHANGES.md, so neither cites a
// PR, the paper-to-package map exists once, in ARCHITECTURE, every CI
// step or job either names (CI `name`) is one the workflow has, every
// test, fuzz target or benchmark either names (`TestX`) is declared in a
// _test.go file, every "`x` pin group" either names is one of
// directive.PinGroups, ARCHITECTURE names each of those that way, and
// every `T.M` either names, where T is a type the module declares, names
// a method or struct field of T.
func TestDocsDescribeThePresent(t *testing.T) {
	workflow, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	ci := map[string]bool{}
	for _, m := range ciStep.FindAllStringSubmatch(string(workflow), -1) {
		ci[strings.TrimSpace(m[1])] = true
	}
	_, jobs, _ := strings.Cut(string(workflow), "\njobs:\n")
	for _, m := range ciJob.FindAllStringSubmatch(jobs, -1) {
		ci[m[1]] = true
	}
	tests := map[string]bool{}
	err = filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != "."):
			return filepath.SkipDir
		case !strings.HasSuffix(path, "_test.go"):
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range testDecl.FindAllStringSubmatch(string(src), -1) {
			tests[m[1]] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	member := declaredMembers(t)
	var maps []string
	for _, file := range []string{"README.md", filepath.Join("docs", "ARCHITECTURE.md")} {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			if m := prCitation.FindString(line); m != "" {
				t.Errorf("%s:%d cites %q; change history belongs in CHANGES.md", file, i+1, m)
			}
		}
		for _, h := range paperMapHeading.FindAllString(string(data), -1) {
			maps = append(maps, file+": "+h)
		}
		for _, m := range ciMention.FindAllStringSubmatchIndex(string(data), -1) {
			if name := string(data[m[2]:m[3]]); !ci[name] {
				line := 1 + strings.Count(string(data[:m[0]]), "\n")
				t.Errorf("%s:%d names CI `%s`, which is no step or job in ci.yml", file, line, name)
			}
		}
		for _, m := range testMention.FindAllStringSubmatchIndex(string(data), -1) {
			if name := string(data[m[2]:m[3]]); !tests[name] {
				line := 1 + strings.Count(string(data[:m[0]]), "\n")
				t.Errorf("%s:%d names `%s`, which no _test.go declares", file, line, name)
			}
		}
		for _, m := range memberMention.FindAllStringSubmatchIndex(string(data), -1) {
			typ, name := string(data[m[2]:m[3]]), string(data[m[4]:m[5]])
			if isType, declared := member(typ, name); isType && !declared {
				line := 1 + strings.Count(string(data[:m[0]]), "\n")
				t.Errorf("%s:%d names `%s.%s`, but %s declares no method or field %s", file, line, typ, name, typ, name)
			}
		}
		named := map[string]bool{}
		for _, m := range pinGroupMention.FindAllStringSubmatchIndex(string(data), -1) {
			name := string(data[m[2]:m[3]])
			named[name] = true
			if !slices.Contains(directive.PinGroups, name) {
				line := 1 + strings.Count(string(data[:m[0]]), "\n")
				t.Errorf("%s:%d names the `%s` pin group, which directive.PinGroups does not have", file, line, name)
			}
		}
		if filepath.Base(file) == "ARCHITECTURE.md" {
			for _, group := range directive.PinGroups {
				if !named[group] {
					t.Errorf("%s names no `%s` pin group; directive.PinGroups has it", file, group)
				}
			}
		}
	}
	if len(maps) != 1 {
		t.Errorf("paper-to-package map headings %q, want exactly one", maps)
	}
}
