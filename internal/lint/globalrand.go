package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
)

// GlobalRand forces all randomness through the seeded, splittable sim.RNG.
// It forbids, repo-wide:
//
//   - the global math/rand and math/rand/v2 package-level draw functions
//     (rand.Intn, rand.Float64, rand.Shuffle, ...): they share unseeded
//     process-global state, so results differ run to run — including in
//     tests;
//   - raw rand.New / rand.NewSource outside internal/sim/rng.go in non-test
//     code: every production stream must derive from sim.RNG so seed
//     derivation stays centralized and splittable. Tests may construct
//     seeded rand.New generators directly.
//
// Methods on an explicit *rand.Rand value are not flagged; the analyzer
// polices where generators come from, not how they are consumed.
var GlobalRand = &Analyzer{
	Name: "globalrand",
	Doc:  "forbids global math/rand state and raw generator construction outside sim/rng.go",
	Run:  runGlobalRand,
}

// randConstructors create generators or sources; allowed only in
// internal/sim/rng.go (and seeded use in _test.go files).
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true, // math/rand/v2
	"NewZipf":    true,
}

func isRandPkg(path string) bool {
	return path == "math/rand" || path == "math/rand/v2"
}

func runGlobalRand(pass *Pass) {
	supp := collectSuppressions(pass)
	simPkg := false
	for _, e := range pathElements(pass.Pkg.Path()) {
		if e == "sim" {
			simPkg = true
		}
	}
	preorder(pass, func(sel *ast.SelectorExpr) {
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil || !isRandPkg(fn.Pkg().Path()) {
			return
		}
		if fn.Signature().Recv() != nil {
			return // method on an explicit generator value
		}
		file := pass.Fset.Position(sel.Pos()).Filename
		if simPkg && filepath.Base(file) == "rng.go" {
			return // the one sanctioned home of raw math/rand
		}
		test := strings.HasSuffix(file, "_test.go")
		if randConstructors[fn.Name()] {
			if test {
				return // seeded local generators are fine in tests
			}
			supp.report(pass, sel.Pos(),
				"rand."+fn.Name()+" constructs a raw generator; derive a stream from sim.RNG (NewRNG/Split) so seeding stays centralized (or //lint:ignore globalrand <reason>)")
			return
		}
		supp.report(pass, sel.Pos(),
			"rand."+fn.Name()+" uses process-global math/rand state and is nondeterministic; use a seeded sim.RNG stream (or //lint:ignore globalrand <reason>)")
	})
}
