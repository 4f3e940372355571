package lint_test

import (
	"path/filepath"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

func fixture(elem ...string) string {
	return filepath.Join(append([]string{"testdata"}, elem...)...)
}

func TestDetMap(t *testing.T) {
	// Flagged and clean cases inside a result-affecting package.
	linttest.Run(t, fixture("detmap", "sim"), "repro/internal/sim", lint.DetMap)
}

func TestDetMapIgnoresColdPackages(t *testing.T) {
	// The same range-over-map in a package outside the result-affecting set
	// produces nothing.
	linttest.Run(t, fixture("detmap", "cold"), "repro/internal/cold", lint.DetMap)
}

func TestWallTime(t *testing.T) {
	linttest.Run(t, fixture("walltime", "netsim"), "repro/internal/netsim", lint.WallTime)
}

func TestWallTimePolicesCampaign(t *testing.T) {
	// The campaign executor's watchdog and backoff go through
	// internal/supervise; a wall-clock call in campaign itself is flagged.
	linttest.Run(t, fixture("walltime", "campaign"), "repro/internal/campaign", lint.WallTime)
}

func TestWallTimePolicesDistrib(t *testing.T) {
	// Likewise the coordinator's batch watchdog, backoff and timeouts.
	linttest.Run(t, fixture("walltime", "distrib"), "repro/internal/distrib", lint.WallTime)
}

func TestDetMapPolicesDistrib(t *testing.T) {
	// distrib is result-affecting: a map iteration ordering bug there could
	// reorder merged results.
	linttest.Run(t, fixture("detmap", "distrib"), "repro/internal/distrib", lint.DetMap)
}

func TestGlobalRand(t *testing.T) {
	linttest.Run(t, fixture("globalrand", "app"), "repro/internal/app", lint.GlobalRand)
}

func TestGlobalRandAllowsRNGFile(t *testing.T) {
	// rng.go inside the sim package may construct raw generators; every
	// other file in the same package may not.
	linttest.Run(t, fixture("globalrand", "sim"), "repro/internal/sim", lint.GlobalRand)
}

func TestHotAlloc(t *testing.T) {
	linttest.Run(t, fixture("hotalloc", "hot"), "repro/internal/netsim", lint.HotAlloc)
}

func TestDirective(t *testing.T) {
	// Missing reason rejected, unknown analyzer rejected, valid and
	// multi-analyzer suppressions accepted.
	linttest.Run(t, fixture("directive", "dir"), "repro/internal/dir", lint.Directive)
}

func TestValidSuppressionHonored(t *testing.T) {
	// The valid directives in the directive fixture must actually suppress
	// detmap: the fixture's only detmap diagnostics are the ones its want
	// comments demand (none on the valid/multiAnalyzer loops, and the
	// malformed-directive loops stay flagged because a broken directive
	// suppresses nothing).
	linttest.Run(t, fixture("directive", "suppression"), "repro/internal/sim", lint.DetMap)
}
