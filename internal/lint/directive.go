package lint

// Directive validates every //lint:ignore suppression in the repo: the
// directive must name at least one known analyzer (detmap, walltime,
// globalrand, hotalloc) and carry a non-empty reason. A suppression
// without a reason is a determinism bug waiting for its archaeology;
// this analyzer makes the reason load-bearing. Directive findings are
// themselves unsuppressable.
var Directive = &Analyzer{
	Name: "lintdirective",
	Doc:  "checks that every //lint:ignore names a known analyzer and carries a reason",
	Run:  runDirective,
}

func runDirective(pass *Pass) {
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d := parseIgnore(c)
				if d == nil || d.malformed == "" {
					continue
				}
				pass.Report(d.pos, "malformed //lint:ignore directive: "+d.malformed)
			}
		}
	}
}
