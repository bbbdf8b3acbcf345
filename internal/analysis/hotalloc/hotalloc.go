// Package hotalloc is the static complement of the AllocsPerRun runtime
// pins: inside functions marked `//hpm:hotpath`, it flags the known
// allocation sources that would silently break the zero-allocation
// decision tick (L0 = L1 = L2 = 0 and table probe = 0 steady-state
// budgets):
//
//   - fmt.Sprint* and strings.Join calls;
//   - string concatenation (+ / +=) with non-constant operands;
//   - map and slice composite literals, &T{...}, make, and new;
//   - append that grows a fresh slice (self-extension `x = append(x, ...)`
//     and scratch reuse `append(buf[:0], ...)` stay legal — those are the
//     pooled-buffer idioms);
//   - function literals that capture outer variables (escaping closures);
//   - implicit concrete-value → interface conversions at call arguments
//     (boxing).
//
// Error construction is exempt: fmt.Errorf and errors.New calls (and
// their arguments) are by repo convention cold failure paths, and the
// runtime pins never exercise them. A deliberate allocation inside a hot
// function — a warm-up, a documented cold fallback, or a copy-out the
// AllocsPerRun budget already counts — carries `//hpm:alloc <why>` on
// its line.
//
// It also enforces the altitude rule of the worker pools: any call into
// hierctl/internal/par inside a hot function is reported, with no escape
// directive. Work fans out between independent runs, tenants, sweep cells
// and learning tasks — never inside one control tick, where it would make
// the explored-state counters and the flight-recorder sequence depend on
// scheduling.
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"

	"hierctl/internal/analysis"
	"hierctl/internal/analysis/directive"
)

// parPath is the worker-pool package hot functions may not call.
const parPath = "hierctl/internal/par"

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc:  "flag allocating constructs and worker-pool fan-outs inside //hpm:hotpath functions",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		dirs, _ := directive.ParseFile(pass.Fset, file)
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !dirs.HotpathFunc(pass.Fset, fn) {
				continue
			}
			c := &checker{pass: pass, dirs: dirs, handled: map[*ast.CallExpr]bool{}}
			c.check(fn.Body)
		}
	}
	return nil
}

type checker struct {
	pass *analysis.Pass
	dirs directive.Map
	// handled marks append calls already validated with their assignment
	// context, so the bare CallExpr visit does not re-check them without
	// the left-hand side (which would flag legal self-extension).
	handled map[*ast.CallExpr]bool
}

// report flags pos unless the line carries an //hpm:alloc escape.
func (c *checker) report(pos token.Pos, format string, args ...any) {
	if c.dirs.EscapedAt(c.pass.Fset, pos, directive.Alloc) {
		return
	}
	c.pass.Reportf(pos, format, args...)
}

func (c *checker) check(body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			return c.checkCall(x)
		case *ast.AssignStmt:
			c.checkAssign(x)
		case *ast.BinaryExpr:
			c.checkConcat(x)
		case *ast.CompositeLit:
			c.checkComposite(x)
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if _, ok := x.X.(*ast.CompositeLit); ok {
					c.report(x.Pos(), "&composite literal allocates in hot path (hoist to a reused field or annotate //hpm:alloc)")
				}
			}
		case *ast.FuncLit:
			if capturesOuter(c.pass, x) {
				c.report(x.Pos(), "closure captures outer variables and allocates in hot path (use a method or annotate //hpm:alloc)")
			}
		}
		return true
	})
}

// checkCall handles builtin allocators, formatting calls, and interface
// boxing at argument positions. Returns false to skip the subtree (error
// construction is exempt wholesale).
func (c *checker) checkCall(call *ast.CallExpr) bool {
	if isErrorCtor(c.pass, call) {
		return false
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		switch fun.Name {
		case "make":
			if isBuiltin(c.pass, fun) {
				c.report(call.Pos(), "make allocates in hot path (preallocate in the constructor or annotate //hpm:alloc)")
			}
		case "new":
			if isBuiltin(c.pass, fun) {
				c.report(call.Pos(), "new allocates in hot path (hoist to a reused field or annotate //hpm:alloc)")
			}
		case "append":
			if isBuiltin(c.pass, fun) && !c.handled[call] {
				c.checkAppend(call, nil)
			}
		}
	case *ast.SelectorExpr:
		if fn, ok := c.pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok && fn.Pkg() != nil {
			if fn.Pkg().Path() == parPath {
				c.pass.Reportf(call.Pos(), "par.%s fans out inside a hot path (parallelism belongs between runs, tenants and sweep cells, never inside a control tick; there is no escape directive)", fn.Name())
			}
			qualified := fn.Pkg().Path() + "." + fn.Name()
			switch qualified {
			case "fmt.Sprintf", "fmt.Sprint", "fmt.Sprintln", "strings.Join":
				c.report(call.Pos(), "%s builds a string in hot path (precompute or annotate //hpm:alloc)", qualified)
				return false
			}
		}
	}
	c.checkBoxing(call)
	return true
}

// checkAssign validates appends in context: `x = append(x, ...)` is
// scratch reuse, anything else grows a fresh slice.
func (c *checker) checkAssign(s *ast.AssignStmt) {
	for i, rhs := range s.Rhs {
		call, ok := rhs.(*ast.CallExpr)
		if !ok {
			continue
		}
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" && isBuiltin(c.pass, id) {
			var lhs ast.Expr
			if i < len(s.Lhs) {
				lhs = s.Lhs[i]
			}
			c.handled[call] = true
			c.checkAppend(call, lhs)
		}
	}
}

// checkAppend flags appends whose base is neither the assignment target
// (self-extension) nor a re-sliced scratch buffer (`buf[:0]`).
func (c *checker) checkAppend(call *ast.CallExpr, lhs ast.Expr) {
	if len(call.Args) == 0 {
		return
	}
	base := call.Args[0]
	if _, ok := base.(*ast.SliceExpr); ok {
		return // append(buf[:0], ...) — scratch reuse
	}
	if lhs != nil {
		l, b := exprString(lhs), exprString(base)
		if l != "" && l == b {
			return // x = append(x, ...) — amortized self-extension
		}
	}
	c.report(call.Pos(), "append grows a fresh slice in hot path (reuse scratch via x = append(x[:0], ...) or annotate //hpm:alloc)")
}

// checkConcat flags non-constant string concatenation.
func (c *checker) checkConcat(b *ast.BinaryExpr) {
	if b.Op != token.ADD {
		return
	}
	tv, ok := c.pass.TypesInfo.Types[b]
	if !ok || tv.Value != nil { // constant-folded: free
		return
	}
	if basic, ok := tv.Type.Underlying().(*types.Basic); ok && basic.Info()&types.IsString != 0 {
		c.report(b.Pos(), "string concatenation allocates in hot path (precompute or annotate //hpm:alloc)")
	}
}

// checkComposite flags map and slice literals (struct literals are
// stack values and stay legal).
func (c *checker) checkComposite(lit *ast.CompositeLit) {
	tv, ok := c.pass.TypesInfo.Types[lit]
	if !ok {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Map:
		c.report(lit.Pos(), "map literal allocates in hot path (hoist to a reused field or annotate //hpm:alloc)")
	case *types.Slice:
		c.report(lit.Pos(), "slice literal allocates in hot path (hoist to a reused field or annotate //hpm:alloc)")
	}
}

// checkBoxing flags call arguments that implicitly convert a concrete
// non-pointer value to an interface parameter.
func (c *checker) checkBoxing(call *ast.CallExpr) {
	sigTv, ok := c.pass.TypesInfo.Types[call.Fun]
	if !ok {
		return
	}
	sig, ok := sigTv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1 && call.Ellipsis.IsValid():
			pt = params.At(params.Len() - 1).Type() // f(xs...) passes the slice (append(b, s...) a string) as is
		case sig.Variadic() && i >= params.Len()-1:
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at, ok := c.pass.TypesInfo.Types[arg]
		if !ok || at.Type == nil {
			continue
		}
		if at.IsNil() {
			continue
		}
		switch at.Type.Underlying().(type) {
		case *types.Interface, *types.Pointer, *types.TypeParam:
			continue // no boxing: already boxed, or pointer-shaped
		}
		c.report(arg.Pos(), "implicit interface conversion boxes a value in hot path (pass a pointer, restructure, or annotate //hpm:alloc)")
	}
}

// capturesOuter reports whether lit references variables declared
// outside the literal (a capturing closure, which escapes).
func capturesOuter(pass *analysis.Pass, lit *ast.FuncLit) bool {
	inside := map[types.Object]bool{}
	ast.Inspect(lit, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := pass.TypesInfo.Defs[id]; obj != nil {
				inside[obj] = true
			}
		}
		return true
	})
	captures := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captures {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || inside[obj] || obj.IsField() {
			return true
		}
		// Package-level variables are not captures.
		if obj.Parent() == pass.Pkg.Scope() || obj.Parent() == types.Universe {
			return true
		}
		captures = true
		return false
	})
	return captures
}

// isBuiltin reports whether id resolves to the builtin of that name
// (go/types records builtin uses as *types.Builtin; a shadowing
// declaration resolves to something else).
func isBuiltin(pass *analysis.Pass, id *ast.Ident) bool {
	_, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok
}

// exprString renders simple expressions for structural comparison.
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

// isErrorCtor matches fmt.Errorf and errors.New — error construction on
// cold failure paths.
func isErrorCtor(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	q := fn.Pkg().Path() + "." + fn.Name()
	return q == "fmt.Errorf" || q == "errors.New"
}
