// Package directive parses the repo's `//hpm:` source annotations — the
// escape hatches and markers the hpmvet analyzers honor. Following the
// Go toolchain's directive convention, a directive is a `//`-comment
// with no space before the `hpm:` prefix:
//
//	//hpm:wallclock <justification>  — sanctioned wall-clock read in a
//	    deterministic package (simdeterminism); the site must be
//	    observe-only (an overhead metric, never a decision input).
//	//hpm:orderfree <justification>  — map iteration whose body is
//	    order-insensitive for a reason the maprange analyzer's
//	    heuristics cannot prove.
//	//hpm:hotpath [note]             — marks a function as a zero-alloc
//	    decide path; the hotalloc analyzer checks its body.
//	//hpm:alloc <justification>      — sanctioned allocation site inside
//	    a hotpath function (warm-up, cold subpath, or a copy-out counted
//	    by the AllocsPerRun pins).
//	//hpm:boundedlabel <justification> — a metric label value that is
//	    not a constant but comes from a bounded set: an enum, a shard
//	    index, a top-K ranking (metriclabel).
//	//hpm:pin <group>                — puts a test in one of PinGroups,
//	    the suites CI re-runs by name and counts (`hpmvet -pins <group>`
//	    lists a group). It lives in the doc comment of a top-level
//	    `func TestX(t *testing.T)` in a _test.go file, or of a
//	    `func FuzzX(f *testing.F)` for the fuzz group; a test carries one
//	    line per group it belongs to.
//
// Line-level directives (wallclock, orderfree, alloc, boundedlabel) apply
// to the line they sit on or the line immediately below — i.e. write
// them at the end of the offending line or on their own line directly
// above it. hotpath and pin live in the function's doc comment.
//
// Every `//hpm:` comment in the tree must parse: unknown kinds, missing
// justifications, unknown pin groups and misplaced pins are themselves
// diagnostics (the hpmdirective analyzer), so a typo'd annotation fails
// the build instead of silently disabling a check or dropping a pin.
package directive

import (
	"fmt"
	"go/ast"
	"go/token"
	"slices"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Kind is a recognized directive kind.
type Kind string

// The recognized kinds.
const (
	Wallclock    Kind = "wallclock"
	Orderfree    Kind = "orderfree"
	Hotpath      Kind = "hotpath"
	Alloc        Kind = "alloc"
	Boundedlabel Kind = "boundedlabel"
	Pin          Kind = "pin"
)

// PinGroups are the groups a //hpm:pin may name. Each is one CI step that
// re-runs its members by name and fails unless every one passed as often
// as the step asks:
//
//	mechanics   allocation and memory bounds of the bin around the decide
//	search      the decision searches: exact, oracle-equal, allocation-free
//	sharing     learned artifacts shared across tenants, under -race
//	pools       process-wide request and queue pools, under -race
//	scrape      telemetry reads beside ingest, under -race
//	checkpoint  checkpoint, restore and the journal's crash suite
//	fuzz        fuzz targets run past their committed corpora
var PinGroups = []string{"mechanics", "search", "sharing", "pools", "scrape", "checkpoint", "fuzz"}

// needsArg reports whether the kind requires a justification argument.
func needsArg(k Kind) bool { return k != Hotpath }

var known = map[Kind]bool{
	Wallclock:    true,
	Orderfree:    true,
	Hotpath:      true,
	Alloc:        true,
	Boundedlabel: true,
	Pin:          true,
}

// Directive is one parsed `//hpm:` annotation.
type Directive struct {
	Kind Kind
	// Arg is the justification text after the kind (may be empty for
	// hotpath).
	Arg string
	// Pos is the comment's position.
	Pos token.Pos
	// Line is the comment's 1-based source line.
	Line int
}

// Problem is a malformed or unknown annotation.
type Problem struct {
	Pos     token.Pos
	Message string
}

// Pinned is one well-placed //hpm:pin.
type Pinned struct {
	Group string
	// Func is the pinned test's or fuzz target's name.
	Func string
}

// Map holds a file's directives indexed by source line, and its pins.
type Map struct {
	byLine map[int][]Directive
	pins   []Pinned
}

// prefix is the comment prefix shared by all directives.
const prefix = "//hpm:"

// ParseFile scans every comment in f, returning the file's directive map
// and any problems (unknown kinds, missing justifications, unknown or
// misplaced pins).
func ParseFile(fset *token.FileSet, f *ast.File) (Map, []Problem) {
	m := Map{byLine: map[int][]Directive{}}
	var problems []Problem
	var pins []Directive
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, prefix) {
				continue
			}
			rest := strings.TrimPrefix(c.Text, prefix)
			kindStr, arg, _ := strings.Cut(rest, " ")
			kind := Kind(kindStr)
			// An embedded `// ...` (analysistest want expectations in golden
			// files) is not part of the justification.
			arg, _, _ = strings.Cut(arg, "//")
			arg = strings.TrimSpace(arg)
			if !known[kind] {
				problems = append(problems, Problem{
					Pos:     c.Pos(),
					Message: "unknown //hpm: directive " + strings.TrimSpace(kindStr) + " (recognized: wallclock, orderfree, hotpath, alloc, boundedlabel, pin)",
				})
				continue
			}
			if kind == Pin && !slices.Contains(PinGroups, arg) {
				problems = append(problems, Problem{
					Pos:     c.Pos(),
					Message: fmt.Sprintf("unknown pin group %q (recognized: %s)", arg, strings.Join(PinGroups, ", ")),
				})
				continue
			}
			if needsArg(kind) && arg == "" {
				problems = append(problems, Problem{
					Pos:     c.Pos(),
					Message: "//hpm:" + string(kind) + " needs a justification (why is this site exempt?)",
				})
				continue
			}
			line := fset.Position(c.Pos()).Line
			d := Directive{Kind: kind, Arg: arg, Pos: c.Pos(), Line: line}
			m.byLine[line] = append(m.byLine[line], d)
			if kind == Pin {
				pins = append(pins, d)
			}
		}
	}
	problems = append(problems, m.placePins(fset, f, pins)...)
	return m, problems
}

// placePins keeps the pins that sit in the doc comment of a function go
// test runs as their group asks, and reports every other pin.
func (m *Map) placePins(fset *token.FileSet, f *ast.File, pins []Directive) []Problem {
	if len(pins) == 0 {
		return nil
	}
	var problems []Problem
	bad := func(pos token.Pos, format string, args ...any) {
		problems = append(problems, Problem{Pos: pos, Message: fmt.Sprintf(format, args...)})
	}
	byPos := map[token.Pos]Directive{}
	for _, d := range pins {
		byPos[d.Pos] = d
	}
	testFile := strings.HasSuffix(fset.Position(f.Package).Filename, "_test.go")
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Doc == nil {
			continue
		}
		var groups []string
		for _, c := range fn.Doc.List {
			d, ok := byPos[c.Pos()]
			if !ok {
				continue
			}
			delete(byPos, c.Pos())
			name := fn.Name.Name
			prefix, param := "Test", "T"
			if d.Arg == "fuzz" {
				prefix, param = "Fuzz", "F"
			}
			switch {
			case !testFile:
				bad(d.Pos, "//hpm:pin on %s outside a _test.go file: go test never runs it", name)
			case !testFunc(fn, prefix, param):
				bad(d.Pos, "//hpm:pin %s on %s: the group runs only a top-level func %sX(%s *testing.%s)", d.Arg, name, prefix, strings.ToLower(param), param)
			case slices.Contains(groups, d.Arg):
				bad(d.Pos, "duplicate //hpm:pin %s on %s", d.Arg, name)
			default:
				groups = append(groups, d.Arg)
				m.pins = append(m.pins, Pinned{Group: d.Arg, Func: name})
			}
		}
	}
	for _, d := range pins {
		if _, unplaced := byPos[d.Pos]; unplaced {
			bad(d.Pos, "//hpm:pin belongs in the doc comment of the test it pins")
		}
	}
	return problems
}

// testFunc reports whether fn has the shape go test runs for prefix:
// top-level `func <prefix>X(x *testing.<param>)`, X not starting with a
// lower-case letter. It reads syntax only.
func testFunc(fn *ast.FuncDecl, prefix, param string) bool {
	name := fn.Name.Name
	if fn.Recv != nil || fn.Type.TypeParams != nil || fn.Type.Results.NumFields() > 0 || !strings.HasPrefix(name, prefix) {
		return false
	}
	if r, _ := utf8.DecodeRuneInString(name[len(prefix):]); unicode.IsLower(r) {
		return false
	}
	ps := fn.Type.Params.List
	if len(ps) != 1 || len(ps[0].Names) > 1 {
		return false
	}
	star, ok := ps[0].Type.(*ast.StarExpr)
	if !ok {
		return false
	}
	sel, ok := star.X.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "testing" && sel.Sel.Name == param
}

// Pins returns the file's well-placed pins in source order.
func (m Map) Pins() []Pinned { return m.pins }

// EscapedAt reports whether a node starting at pos is covered by a
// directive of the given kind: on the same source line or on the line
// immediately above.
func (m Map) EscapedAt(fset *token.FileSet, pos token.Pos, kind Kind) bool {
	line := fset.Position(pos).Line
	for _, d := range m.byLine[line] {
		if d.Kind == kind {
			return true
		}
	}
	for _, d := range m.byLine[line-1] {
		if d.Kind == kind {
			return true
		}
	}
	return false
}

// HotpathFunc reports whether fn is marked `//hpm:hotpath` — in its doc
// comment or on the `func` line itself.
func (m Map) HotpathFunc(fset *token.FileSet, fn *ast.FuncDecl) bool {
	if fn.Doc != nil {
		for _, c := range fn.Doc.List {
			if strings.HasPrefix(c.Text, prefix+string(Hotpath)) {
				return true
			}
		}
	}
	line := fset.Position(fn.Pos()).Line
	for _, d := range m.byLine[line] {
		if d.Kind == Hotpath {
			return true
		}
	}
	return false
}
