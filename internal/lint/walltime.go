package lint

import (
	"go/ast"
	"go/types"
)

// WallTime forbids reading or waiting on the wall clock inside the
// result-affecting packages, campaign and distrib included. Simulated time
// is sim.Time, advanced only by the event engine; a time.Now or time.Sleep
// in a simulation path makes results depend on host speed and scheduling,
// breaking byte-identical replay. The wall-clock watchdogs and retry backoff
// around simulations live in internal/supervise, which (like cmd/) is
// outside the checked set.
var WallTime = &Analyzer{
	Name: "walltime",
	Doc:  "forbids wall-clock time functions in simulation packages",
	Run:  runWallTime,
}

// wallClockFuncs are the package-level time functions that observe or wait
// on the wall clock. Pure conversions and constants (time.Duration,
// time.Unix, time.Parse) are fine.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"Tick":      true,
	"NewTicker": true,
	"NewTimer":  true,
	"After":     true,
	"AfterFunc": true,
}

func runWallTime(pass *Pass) {
	if !inResultAffectingPackage(pass) {
		return
	}
	supp := collectSuppressions(pass)
	preorder(pass, func(sel *ast.SelectorExpr) {
		if isTestFile(pass, sel.Pos()) {
			return
		}
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
			return
		}
		if fn.Signature().Recv() != nil || !wallClockFuncs[fn.Name()] {
			return
		}
		supp.report(pass, sel.Pos(),
			"time."+fn.Name()+" reads the wall clock in a simulation package; use the event engine's sim.Time instead (or //lint:ignore walltime <reason>)")
	})
}
