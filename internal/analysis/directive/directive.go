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
//
// Line-level directives (wallclock, orderfree, alloc, boundedlabel) apply
// to the line they sit on or the line immediately below — i.e. write
// them at the end of the offending line or on their own line directly
// above it. hotpath lives in the function's doc comment.
//
// Every `//hpm:` comment in the tree must parse: unknown kinds and
// missing justifications are themselves diagnostics (the hpmdirective
// analyzer), so a typo'd annotation fails the build instead of silently
// disabling a check.
package directive

import (
	"go/ast"
	"go/token"
	"strings"
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
)

// needsArg reports whether the kind requires a justification argument.
func needsArg(k Kind) bool { return k != Hotpath }

var known = map[Kind]bool{
	Wallclock:    true,
	Orderfree:    true,
	Hotpath:      true,
	Alloc:        true,
	Boundedlabel: true,
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

// Map holds a file's directives indexed by source line.
type Map struct {
	byLine map[int][]Directive
}

// prefix is the comment prefix shared by all directives.
const prefix = "//hpm:"

// ParseFile scans every comment in f, returning the file's directive map
// and any problems (unknown kinds, missing justifications).
func ParseFile(fset *token.FileSet, f *ast.File) (Map, []Problem) {
	m := Map{byLine: map[int][]Directive{}}
	var problems []Problem
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
					Message: "unknown //hpm: directive " + strings.TrimSpace(kindStr) + " (recognized: wallclock, orderfree, hotpath, alloc, boundedlabel)",
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
			m.byLine[line] = append(m.byLine[line], Directive{Kind: kind, Arg: arg, Pos: c.Pos(), Line: line})
		}
	}
	return m, problems
}

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
