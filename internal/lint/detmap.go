package lint

import (
	"go/ast"
	"go/types"
)

// DetMap flags range statements over maps in result-affecting packages.
// Go's map iteration order is deliberately randomized, so any result that
// depends on it differs between runs — the exact bug class PR 2 found in
// retransmission ordering. The one allowed form is the collect-then-sort
// idiom, a loop body that only appends to a slice:
//
//	keys := make([]string, 0, len(m))
//	for k := range m {
//		keys = append(keys, k)
//	}
//	sort.Strings(keys)
//
// Anything else must sort keys first or carry
// //lint:ignore detmap <reason> explaining why order cannot matter.
var DetMap = &Analyzer{
	Name: "detmap",
	Doc:  "flags nondeterministic map iteration in result-affecting packages",
	Run:  runDetMap,
}

func runDetMap(pass *Pass) {
	if !inResultAffectingPackage(pass) {
		return
	}
	supp := collectSuppressions(pass)
	preorder(pass, func(rng *ast.RangeStmt) {
		if isTestFile(pass, rng.Pos()) {
			return
		}
		tv := pass.TypesInfo.TypeOf(rng.X)
		if tv == nil {
			return
		}
		if _, ok := tv.Underlying().(*types.Map); !ok {
			return
		}
		if isCollectOnlyBody(rng.Body) {
			return
		}
		supp.report(pass, rng.Pos(),
			"range over map has nondeterministic iteration order; sort the keys first (or //lint:ignore detmap <reason> if order provably cannot affect results)")
	})
}

// isCollectOnlyBody reports whether every statement in the loop body is an
// append-to-slice assignment (s = append(s, ...)), the canonical
// harvest-keys-for-sorting idiom whose result is order-insensitive once
// sorted.
func isCollectOnlyBody(body *ast.BlockStmt) bool {
	if body == nil || len(body.List) == 0 {
		return false
	}
	for _, stmt := range body.List {
		assign, ok := stmt.(*ast.AssignStmt)
		if !ok || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
			return false
		}
		call, ok := assign.Rhs[0].(*ast.CallExpr)
		if !ok {
			return false
		}
		fn, ok := call.Fun.(*ast.Ident)
		if !ok || fn.Name != "append" {
			return false
		}
		// The destination must be the same variable being appended to:
		// s = append(s, ...) — a pure accumulation.
		lhs, ok := assign.Lhs[0].(*ast.Ident)
		if !ok || len(call.Args) < 2 {
			return false
		}
		base, ok := call.Args[0].(*ast.Ident)
		if !ok || base.Name != lhs.Name {
			return false
		}
	}
	return true
}
