// Package metriclabel enforces Prometheus registration hygiene at
// internal/metrics call sites: metric names must be compile-time
// constants matching the Prometheus name grammar, help strings must be
// constant and non-empty, and label-key sets must be constant, valid,
// and non-reserved.
//
// The registry validates these at runtime too — but a runtime failure
// surfaces on the first scrape of a rarely-hit code path, while this
// analyzer surfaces it at build time, and constancy (which the runtime
// cannot check) is what keeps the exposition's family set stable across
// builds and greppable from CI.
//
// Registration calls are the Counter/Gauge/Histogram methods on
// metrics.Registry. Thin wrappers are followed one level at a time: a
// call that forwards its own string parameter into a registration
// position (e.g. hpmserve's mustCounter helper) marks that parameter's
// position, and the wrapper's call sites are then checked under the
// same rules, to a fixpoint.
//
// Label values: every distinct value passed to With on a CounterVec,
// GaugeVec or HistogramVec is a series the process holds and renders for
// the rest of its life, so a value computed at run time (a tenant id, a
// path) is how an exposition comes to grow with the workload. A With
// whose argument is not a constant is reported unless the call carries
// `//hpm:boundedlabel <why>` naming the bound — an enum, a shard index, a
// top-K ranking. cmd/hpmperf is exempt: the benchmark contract freezes
// that directory, and the registry it fills with one series per tenant is
// the throwaway input of its WriteText timing, never served.
package metriclabel

import (
	"go/ast"
	"go/constant"
	"go/types"
	"regexp"
	"strings"

	"hierctl/internal/analysis"
	"hierctl/internal/analysis/directive"
)

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name: "metriclabel",
	Doc:  "require constant, well-formed metric names, help strings, and label keys at metrics registration sites",
	Run:  run,
}

// role is what a registration argument position means.
type role int

const (
	roleName role = iota
	roleHelp
	roleLabel
)

func (r role) String() string {
	switch r {
	case roleName:
		return "metric name"
	case roleHelp:
		return "help string"
	default:
		return "label key"
	}
}

var (
	metricNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRE  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// wrapper records which parameters of a callable forward into
// registration positions. variadicLabels marks a trailing ...string
// parameter forwarded as the label set.
type wrapper struct {
	params         map[int]role
	variadicLabels int // parameter index, -1 if none
}

func run(pass *analysis.Pass) error {
	c := &checker{
		pass:     pass,
		paramIdx: map[types.Object]paramRef{},
		wrappers: map[types.Object]*wrapper{},
	}
	c.indexParams()
	// Pass 1: direct registration calls — validates constants and seeds
	// wrappers. Passes 2..n: wrapper call sites, to a fixpoint (wrappers
	// of wrappers).
	c.walkCalls(c.checkRegistration)
	for prev := -1; prev != len(c.wrappers); {
		prev = len(c.wrappers)
		c.walkCalls(c.checkWrapperCall)
	}
	if pass.Pkg.Path() != "hierctl/cmd/hpmperf" {
		c.checkLabelValues()
	}
	return nil
}

// checkLabelValues reports With calls on the metrics vector types whose
// label values are not all constants, unless annotated as bounded.
func (c *checker) checkLabelValues() {
	for _, file := range c.pass.Files {
		dirs, _ := directive.ParseFile(c.pass.Fset, file)
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "With" {
				return true
			}
			fn, ok := c.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || !strings.HasSuffix(fn.Pkg().Path(), "internal/metrics") {
				return true
			}
			for _, arg := range call.Args {
				if tv, ok := c.pass.TypesInfo.Types[arg]; ok && tv.Value != nil {
					continue
				}
				if !dirs.EscapedAt(c.pass.Fset, call.Pos(), directive.Boundedlabel) {
					c.pass.Reportf(arg.Pos(), "label value is not a constant: every distinct value is a series held and rendered forever (use a constant, or annotate the call with //hpm:boundedlabel <what bounds it>)")
				}
				break
			}
			return true
		})
	}
}

// paramRef locates one parameter within its callable.
type paramRef struct {
	callable types.Object
	idx      int
}

type checker struct {
	pass     *analysis.Pass
	paramIdx map[types.Object]paramRef
	wrappers map[types.Object]*wrapper
	// reported de-duplicates findings across the fixpoint passes.
	reported map[token]bool
}

type token = int // token.Pos as comparable key

// indexParams maps every function/func-literal parameter object to its
// callable and position. Func literals count only when bound to a
// variable (`f := func(...)`) so call sites can be resolved.
func (c *checker) indexParams() {
	for _, file := range c.pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncDecl:
				if obj := c.pass.TypesInfo.Defs[x.Name]; obj != nil {
					c.indexFieldList(obj, x.Type.Params)
				}
			case *ast.AssignStmt:
				for i, rhs := range x.Rhs {
					lit, ok := rhs.(*ast.FuncLit)
					if !ok || i >= len(x.Lhs) {
						continue
					}
					if id, ok := x.Lhs[i].(*ast.Ident); ok {
						obj := c.pass.TypesInfo.Defs[id]
						if obj == nil {
							obj = c.pass.TypesInfo.Uses[id]
						}
						if obj != nil {
							c.indexFieldList(obj, lit.Type.Params)
						}
					}
				}
			case *ast.ValueSpec:
				for i, v := range x.Values {
					lit, ok := v.(*ast.FuncLit)
					if !ok || i >= len(x.Names) {
						continue
					}
					if obj := c.pass.TypesInfo.Defs[x.Names[i]]; obj != nil {
						c.indexFieldList(obj, lit.Type.Params)
					}
				}
			}
			return true
		})
	}
}

func (c *checker) indexFieldList(callable types.Object, params *ast.FieldList) {
	if params == nil {
		return
	}
	idx := 0
	for _, field := range params.List {
		for _, name := range field.Names {
			if obj := c.pass.TypesInfo.Defs[name]; obj != nil {
				c.paramIdx[obj] = paramRef{callable: callable, idx: idx}
			}
			idx++
		}
		if len(field.Names) == 0 {
			idx++
		}
	}
}

func (c *checker) walkCalls(visit func(*ast.CallExpr)) {
	for _, file := range c.pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				visit(call)
			}
			return true
		})
	}
}

// checkRegistration handles direct calls to Registry.Counter/Gauge/
// Histogram.
func (c *checker) checkRegistration(call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := c.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || !strings.HasSuffix(fn.Pkg().Path(), "internal/metrics") {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || !isRegistry(sig.Recv().Type()) {
		return
	}
	var labelStart int
	switch fn.Name() {
	case "Counter", "Gauge":
		labelStart = 2
	case "Histogram":
		labelStart = 3 // (name, help, bounds, labels...)
	default:
		return
	}
	if len(call.Args) < 2 {
		return
	}
	c.checkArg(call.Args[0], roleName)
	c.checkArg(call.Args[1], roleHelp)
	for i := labelStart; i < len(call.Args); i++ {
		if call.Ellipsis.IsValid() && i == len(call.Args)-1 {
			c.forwardSlice(call.Args[i])
			continue
		}
		c.checkArg(call.Args[i], roleLabel)
	}
}

// checkWrapperCall applies the registration rules at call sites of
// known wrappers.
func (c *checker) checkWrapperCall(call *ast.CallExpr) {
	obj := calleeObject(c.pass, call)
	if obj == nil {
		return
	}
	w, ok := c.wrappers[obj]
	if !ok {
		return
	}
	for i, arg := range call.Args {
		if call.Ellipsis.IsValid() && i == len(call.Args)-1 && w.variadicLabels >= 0 && i >= w.variadicLabels {
			c.forwardSlice(arg)
			continue
		}
		if r, ok := w.params[i]; ok {
			c.checkArg(arg, r)
		} else if w.variadicLabels >= 0 && i >= w.variadicLabels {
			c.checkArg(arg, roleLabel)
		}
	}
}

// checkArg validates one argument in a role: a constant is checked
// against the role's grammar; an identifier bound to a function
// parameter marks the enclosing callable as a wrapper; anything else is
// a non-constant diagnostic.
func (c *checker) checkArg(arg ast.Expr, r role) {
	tv, ok := c.pass.TypesInfo.Types[arg]
	if ok && tv.Value != nil && tv.Value.Kind() == constant.String {
		c.checkConstant(arg, constant.StringVal(tv.Value), r)
		return
	}
	if id, ok := arg.(*ast.Ident); ok {
		if obj := c.pass.TypesInfo.Uses[id]; obj != nil {
			if ref, ok := c.paramIdx[obj]; ok {
				w := c.wrapper(ref.callable)
				if w.params == nil {
					w.params = map[int]role{}
				}
				w.params[ref.idx] = r
				return
			}
		}
	}
	c.reportOnce(arg, "%s must be a constant string at metrics registration (got a computed value)", r)
}

// forwardSlice handles `labels...` forwarding: when the slice is itself
// a variadic parameter, the enclosing callable becomes a wrapper whose
// trailing parameters are labels; otherwise the label set is not
// constant.
func (c *checker) forwardSlice(arg ast.Expr) {
	if id, ok := arg.(*ast.Ident); ok {
		if obj := c.pass.TypesInfo.Uses[id]; obj != nil {
			if ref, ok := c.paramIdx[obj]; ok {
				w := c.wrapper(ref.callable)
				w.variadicLabels = ref.idx
				return
			}
		}
	}
	c.reportOnce(arg, "label keys forwarded from a non-parameter slice are not constant at metrics registration")
}

func (c *checker) wrapper(callable types.Object) *wrapper {
	w, ok := c.wrappers[callable]
	if !ok {
		w = &wrapper{variadicLabels: -1}
		c.wrappers[callable] = w
	}
	return w
}

func (c *checker) checkConstant(arg ast.Expr, s string, r role) {
	switch r {
	case roleName:
		if !metricNameRE.MatchString(s) {
			c.reportOnce(arg, "metric name %q does not match the Prometheus name grammar [a-zA-Z_:][a-zA-Z0-9_:]*", s)
		}
	case roleHelp:
		if strings.TrimSpace(s) == "" {
			c.reportOnce(arg, "help string must be non-empty at metrics registration")
		}
	case roleLabel:
		if !labelNameRE.MatchString(s) {
			c.reportOnce(arg, "label key %q does not match the Prometheus label grammar [a-zA-Z_][a-zA-Z0-9_]*", s)
		} else if strings.HasPrefix(s, "__") {
			c.reportOnce(arg, "label key %q uses the reserved __ prefix", s)
		}
	}
}

func (c *checker) reportOnce(arg ast.Expr, format string, args ...any) {
	if c.reported == nil {
		c.reported = map[token]bool{}
	}
	k := token(arg.Pos())
	if c.reported[k] {
		return
	}
	c.reported[k] = true
	c.pass.Reportf(arg.Pos(), format, args...)
}

// calleeObject resolves the called object for plain and selector calls.
func calleeObject(pass *analysis.Pass, call *ast.CallExpr) types.Object {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return pass.TypesInfo.Uses[f]
	case *ast.SelectorExpr:
		return pass.TypesInfo.Uses[f.Sel]
	}
	return nil
}

// isRegistry matches *metrics.Registry receivers.
func isRegistry(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return named.Obj().Name() == "Registry"
}
