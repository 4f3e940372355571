package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// HotAlloc polices functions annotated //repo:hotpath — the per-event and
// per-packet paths (engine scheduling, packet send/deliver, queue
// enqueue/dequeue, whisker lookup) that must stay allocation-free in steady
// state. TestChurnSteadyStateAllocs only measures one scenario; this
// analyzer catches the regression classes statically in every annotated
// function:
//
//   - closure literals (each capture allocates),
//   - method values that are not called (x.M as a func value binds its
//     receiver in a new closure each time it is evaluated),
//   - fmt.* calls (interface boxing + formatting state),
//   - append to a slice with no make(..., cap) in scope (growth
//     reallocates under load).
//
// Annotate a function by putting //repo:hotpath anywhere in its doc
// comment. Cold paths inside a hot function (error construction, one-time
// setup) carry //lint:ignore hotalloc <reason>.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "flags allocation patterns in //repo:hotpath functions",
	Run:  runHotAlloc,
}

const hotPathDirective = "//repo:hotpath"

// isHotPath reports whether the function declaration carries the
// //repo:hotpath annotation in its doc comment.
func isHotPath(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if strings.HasPrefix(c.Text, hotPathDirective) {
			return true
		}
	}
	return false
}

func runHotAlloc(pass *Pass) {
	supp := collectSuppressions(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if ok && fn.Body != nil && isHotPath(fn) && !isTestFile(pass, fn.Pos()) {
				checkHotFunc(pass, supp, fn)
			}
		}
	}
}

func checkHotFunc(pass *Pass, supp suppressions, fn *ast.FuncDecl) {
	capSlices := slicesWithCapacity(pass, fn)
	// called holds the selectors in call position, seen at their call before
	// the selector itself is visited.
	called := make(map[*ast.SelectorExpr]bool)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			supp.report(pass, n.Pos(),
				"closure literal in //repo:hotpath function allocates per call; hoist it to a method or package-level func (or //lint:ignore hotalloc <reason>)")
			return false // don't descend: the closure body is not the hot path
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				called[sel] = true
			}
			checkHotCall(pass, supp, capSlices, n)
		case *ast.SelectorExpr:
			if s := pass.TypesInfo.Selections[n]; s != nil && s.Kind() == types.MethodVal && !called[n] {
				supp.report(pass, n.Pos(),
					"method value "+n.Sel.Name+" in //repo:hotpath function allocates a closure each time it is evaluated; bind it once outside the hot path (or //lint:ignore hotalloc <reason>)")
			}
		}
		return true
	})
}

func checkHotCall(pass *Pass, supp suppressions, capSlices map[*types.Var]bool, call *ast.CallExpr) {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if f, ok := pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok &&
			f.Pkg() != nil && f.Pkg().Path() == "fmt" {
			supp.report(pass, call.Pos(),
				"fmt."+f.Name()+" in //repo:hotpath function allocates (interface boxing, formatter state); move formatting off the hot path (or //lint:ignore hotalloc <reason>)")
		}
	case *ast.Ident:
		if fun.Name != "append" || len(call.Args) == 0 {
			return
		}
		if base, ok := call.Args[0].(*ast.Ident); ok {
			if v, ok := pass.TypesInfo.Uses[base].(*types.Var); ok && capSlices[v] {
				return // appending into preallocated capacity
			}
		}
		supp.report(pass, call.Pos(),
			"append in //repo:hotpath function may grow the backing array; preallocate with make(..., cap) in this function (or //lint:ignore hotalloc <reason>)")
	}
}

// slicesWithCapacity returns the local slice variables of fn that are
// created by a make call carrying an explicit capacity argument
// (make([]T, len, cap)) — appends into them are treated as
// capacity-bounded. A two-argument make([]T, n) is full (len == cap), so
// the first append would already reallocate; it does not qualify.
func slicesWithCapacity(pass *Pass, fn *ast.FuncDecl) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Lhs) != len(assign.Rhs) {
			return true
		}
		for i, rhs := range assign.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok || len(call.Args) < 3 {
				continue
			}
			fun, ok := call.Fun.(*ast.Ident)
			if !ok || fun.Name != "make" {
				continue
			}
			lhs, ok := assign.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			if v, ok := pass.TypesInfo.Defs[lhs].(*types.Var); ok {
				out[v] = true
			} else if v, ok := pass.TypesInfo.Uses[lhs].(*types.Var); ok {
				out[v] = true
			}
		}
		return true
	})
	return out
}
