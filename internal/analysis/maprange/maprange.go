// Package maprange flags `for range` over maps in the deterministic
// simulation packages unless the loop is provably order-insensitive.
//
// Go randomizes map iteration order per iteration, so any map range
// whose effect depends on visit order is nondeterminism waiting for a
// replay test to find it. Two body shapes are recognized as safe:
//
//   - collect-then-sort: the body only appends into slices and a sort.*
//     call follows the loop in the same function;
//   - commutative accumulation: the body only performs order-insensitive
//     updates — `+=`, `|=`, counters, stores into another map, or
//     guarded max/min updates.
//
// Anything else needs an `//hpm:orderfree <justification>` directive on
// the `for` line (or the line above). The audit that introduced this
// analyzer found two real violations of the convention: serializers that
// wrote a table's cells in map order.
package maprange

import (
	"go/ast"
	"go/token"
	"go/types"

	"hierctl/internal/analysis"
	"hierctl/internal/analysis/directive"
)

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name: "maprange",
	Doc:  "flag order-sensitive map iteration in deterministic simulation packages",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if !analysis.IsDeterministic(pass.Pkg.Path()) {
		return nil
	}
	for _, file := range pass.Files {
		dirs, _ := directive.ParseFile(pass.Fset, file)
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				rng, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				t := pass.TypesInfo.Types[rng.X].Type
				if t == nil {
					return true
				}
				if _, isMap := t.Underlying().(*types.Map); !isMap {
					return true
				}
				if len(rng.Body.List) == 0 {
					return true
				}
				if dirs.EscapedAt(pass.Fset, rng.Pos(), directive.Orderfree) {
					return true
				}
				if commutativeBody(rng.Body.List) {
					return true
				}
				if collectBody(rng.Body.List) && sortsAfter(fn.Body, rng.End()) {
					return true
				}
				pass.Reportf(rng.Pos(), "map iteration order is randomized: collect keys and sort, accumulate commutatively, or annotate //hpm:orderfree with a justification")
				return true
			})
		}
	}
	return nil
}

// commutativeBody reports whether every statement is an
// order-insensitive update: += / -= / |= / &= / ^= / *=, ++/--, a store
// into another map, a guarded max/min-style update, or continue.
func commutativeBody(stmts []ast.Stmt) bool {
	for _, st := range stmts {
		switch s := st.(type) {
		case *ast.IncDecStmt:
		case *ast.BranchStmt:
			if s.Tok != token.CONTINUE {
				return false
			}
		case *ast.AssignStmt:
			if !commutativeAssign(s) {
				return false
			}
		case *ast.IfStmt:
			// A guarded update (e.g. `if v > max { max = v }`) is safe as
			// long as the branches themselves are commutative; the
			// condition is assumed side-effect-free.
			if s.Init != nil || !commutativeBody(s.Body.List) {
				return false
			}
			if s.Else != nil {
				blk, ok := s.Else.(*ast.BlockStmt)
				if !ok || !commutativeBody(blk.List) {
					return false
				}
			}
		default:
			return false
		}
	}
	return true
}

// commutativeAssign accepts compound arithmetic/bitwise assignments and
// plain stores whose target is an index expression (writing into
// another map or a keyed slot — position determined by the key, not the
// visit order).
func commutativeAssign(s *ast.AssignStmt) bool {
	switch s.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN,
		token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
		return true
	case token.ASSIGN:
		for _, lhs := range s.Lhs {
			if _, ok := lhs.(*ast.IndexExpr); !ok {
				return false
			}
		}
		return true
	}
	return false
}

// collectBody reports whether every statement only gathers elements:
// self-appends (`x = append(x, ...)`) or continue, possibly under an if.
func collectBody(stmts []ast.Stmt) bool {
	for _, st := range stmts {
		switch s := st.(type) {
		case *ast.BranchStmt:
			if s.Tok != token.CONTINUE {
				return false
			}
		case *ast.AssignStmt:
			if !isSelfAppend(s) {
				return false
			}
		case *ast.IfStmt:
			if s.Init != nil || !collectBody(s.Body.List) {
				return false
			}
			if s.Else != nil {
				blk, ok := s.Else.(*ast.BlockStmt)
				if !ok || !collectBody(blk.List) {
					return false
				}
			}
		default:
			return false
		}
	}
	return true
}

// isSelfAppend matches `x = append(x, ...)`.
func isSelfAppend(s *ast.AssignStmt) bool {
	if s.Tok != token.ASSIGN || len(s.Lhs) != 1 || len(s.Rhs) != 1 {
		return false
	}
	call, ok := s.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "append" {
		return false
	}
	lhs := exprString(s.Lhs[0])
	return lhs != "" && lhs == exprString(call.Args[0])
}

// sortsAfter reports whether a sort.* call appears after pos in body.
func sortsAfter(body *ast.BlockStmt, pos token.Pos) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == "sort" {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// exprString renders simple expressions (identifiers and selector
// chains) for structural comparison.
func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return exprString(x.X) + "[" + exprString(x.Index) + "]"
	case *ast.BasicLit:
		return x.Value
	}
	return ""
}
