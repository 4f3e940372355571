// Package lint implements repolint, a suite of analyzers, built on the
// standard library's go/ast and go/types alone, that enforce this
// repository's determinism and hot-path invariants at build time:
//
//   - detmap: no range over a map in result-affecting packages unless the
//     loop is the collect-keys-then-sort idiom (the PR 2 bug class).
//   - walltime: no wall-clock (time.Now, time.Sleep, ...) in result-affecting
//     packages; simulated time must come from sim.Time only, and watchdogs
//     and retry backoff go through internal/supervise.
//   - globalrand: no global math/rand functions anywhere, and no raw
//     rand.New outside internal/sim/rng.go; randomness flows through the
//     seeded, splittable sim.RNG.
//   - hotalloc: in functions annotated //repo:hotpath, no closure literals,
//     no fmt.* calls, and no append to a slice without provable capacity.
//   - lintdirective: every //lint:ignore suppression names a known analyzer
//     and carries a reason.
//
// A finding is suppressed with a directive on the offending line or the
// line above it:
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//
// The reason is mandatory; lintdirective rejects directives without one and
// is itself unsuppressable.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer is one named check run over a type-checked package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// A Pass is one analyzer's view of one package.
type Pass struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	analyzer string
	diags    *[]Diagnostic
}

// Report records a finding of the pass's analyzer at pos.
func (pass *Pass) Report(pos token.Pos, msg string) {
	*pass.diags = append(*pass.diags, Diagnostic{Pos: pos, Analyzer: pass.analyzer, Message: msg})
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Check type-checks files as the package pkgPath, resolving its imports
// through imp, and runs analyzers over it. A type error is returned as the
// error, with no diagnostics.
func Check(fset *token.FileSet, pkgPath string, files []*ast.File, imp types.Importer, analyzers []*Analyzer) ([]Diagnostic, error) {
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),

		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		return nil, err
	}
	var diags []Diagnostic
	for _, a := range analyzers {
		a.Run(&Pass{Fset: fset, Files: files, Pkg: pkg, TypesInfo: info, analyzer: a.Name, diags: &diags})
	}
	return diags, nil
}

// preorder calls visit on every node of type N in the pass's files, in
// source order.
func preorder[N ast.Node](pass *Pass, visit func(N)) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n, ok := n.(N); ok {
				visit(n)
			}
			return true
		})
	}
}

// Analyzers is the full repolint suite in reporting order.
var Analyzers = []*Analyzer{
	DetMap,
	WallTime,
	GlobalRand,
	HotAlloc,
	Directive,
}

// analyzerNames are the names a //lint:ignore directive may reference.
var analyzerNames = map[string]bool{
	"detmap":     true,
	"walltime":   true,
	"globalrand": true,
	"hotalloc":   true,
}

// resultAffecting lists the import-path elements of packages whose code can
// influence simulation results: iterating a map in any order, reading the
// wall clock, or drawing from an unseeded RNG there can change reported
// numbers across runs, worker counts, shards, or resumes.
var resultAffecting = map[string]bool{
	"sim":       true,
	"netsim":    true,
	"cc":        true,
	"aqm":       true,
	"harness":   true,
	"workload":  true,
	"scenario":  true,
	"campaign":  true,
	"distrib":   true,
	"optimizer": true,
	"exp":       true,
	"core":      true,
	"faults":    true,
	"stats":     true,
	"traces":    true,
	"golden":    true,
	"ring":      true,
}

// pathElements splits a package path into elements, canonicalizing the
// test-variant forms the go tool produces ("p [p.test]", "p_test").
func pathElements(pkgPath string) []string {
	if i := strings.IndexByte(pkgPath, ' '); i >= 0 {
		pkgPath = pkgPath[:i]
	}
	elems := strings.Split(pkgPath, "/")
	if n := len(elems); n > 0 {
		elems[n-1] = strings.TrimSuffix(elems[n-1], "_test")
	}
	return elems
}

// inResultAffectingPackage reports whether the pass's package is one of the
// result-affecting packages detmap and walltime police.
func inResultAffectingPackage(pass *Pass) bool {
	for _, e := range pathElements(pass.Pkg.Path()) {
		if resultAffecting[e] {
			return true
		}
	}
	return false
}

// isTestFile reports whether pos is inside a _test.go file. detmap,
// walltime and hotalloc skip test files: wall-clock deadlines and
// order-insensitive map iteration are legitimate in assertions, and test
// code does not ship results. globalrand still applies to tests (global
// math/rand state is shared across goroutines and seeds).
func isTestFile(pass *Pass, pos token.Pos) bool {
	return strings.HasSuffix(pass.Fset.Position(pos).Filename, "_test.go")
}

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	pos       token.Pos
	analyzers []string // comma-separated analyzer list, possibly empty
	reason    string
	malformed string // non-empty description if the directive is invalid
}

const ignorePrefix = "//lint:ignore"

// parseIgnore parses a single comment, returning nil if it is not a
// //lint:ignore directive at all.
func parseIgnore(c *ast.Comment) *ignoreDirective {
	if !strings.HasPrefix(c.Text, ignorePrefix) {
		return nil
	}
	rest := c.Text[len(ignorePrefix):]
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return nil // e.g. //lint:ignorexyz — some other directive
	}
	d := &ignoreDirective{pos: c.Pos()}
	// A nested // starts a trailing comment (fixtures put // want markers
	// there); it is not part of the analyzer list or reason.
	if i := strings.Index(rest, "//"); i >= 0 {
		rest = rest[:i]
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		d.malformed = "missing analyzer name and reason"
		return d
	}
	d.analyzers = strings.Split(fields[0], ",")
	for _, a := range d.analyzers {
		if a == "" {
			d.malformed = "empty analyzer name"
			return d
		}
		if !analyzerNames[a] {
			d.malformed = "unknown analyzer " + quote(a)
			return d
		}
	}
	if len(fields) < 2 {
		d.malformed = "missing reason (format: //lint:ignore <analyzer> <reason>)"
		return d
	}
	d.reason = strings.Join(fields[1:], " ")
	return d
}

func quote(s string) string { return "\"" + s + "\"" }

// suppressions maps (file, line) to the set of analyzer names suppressed
// there. A directive covers its own line (trailing comment) and the line
// below it (standalone comment above the offending statement).
type suppressions map[suppressKey]bool

type suppressKey struct {
	file     string
	line     int
	analyzer string
}

// collectSuppressions scans every file in the pass for well-formed
// //lint:ignore directives. Malformed directives are reported by the
// lintdirective analyzer, not here.
func collectSuppressions(pass *Pass) suppressions {
	s := make(suppressions)
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d := parseIgnore(c)
				if d == nil || d.malformed != "" {
					continue
				}
				p := pass.Fset.Position(d.pos)
				for _, a := range d.analyzers {
					s[suppressKey{p.Filename, p.Line, a}] = true
					s[suppressKey{p.Filename, p.Line + 1, a}] = true
				}
			}
		}
	}
	return s
}

// report emits a diagnostic unless a //lint:ignore directive for the
// pass's analyzer covers its line.
func (s suppressions) report(pass *Pass, pos token.Pos, msg string) {
	p := pass.Fset.Position(pos)
	if s[suppressKey{p.Filename, p.Line, pass.analyzer}] {
		return
	}
	pass.Report(pos, msg)
}
