package scenario

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/cc"
	"repro/internal/harness"
)

// mallocs returns the process's allocation count so far.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// rebuildAllocWorlds returns the two worlds the rebuild allocation tests
// alternate: a flow-churn parking lot with faults, and a two-flow sfqCoDel
// dumbbell.
func rebuildAllocWorlds() []Spec {
	fc := FamilyConfig{Scheme: "newreno", Workload: ByBytesWorkload(ExponentialDist(300_000), ExponentialDist(0.05)),
		DurationSeconds: 1, Seed: 11, OutageSeconds: 0.1, BurstLoss: 0.3}
	churn := FlowChurnSpec(fc)
	churn.Faults = LossyOutageSpec(fc).Faults
	churn.Faults.Links[0].Link = "hop1"
	dumbbell := New(WithLink(8e6), WithQueue(QueueSfqCoDel, 200), WithDuration(1), WithSeed(11),
		WithFlows(2, "cubic/sfqcodel", 60, fc.Workload))
	return []Spec{churn, dumbbell}
}

// TestRebuildAllocatesNothing pins what rebuilding a world of stock schemes
// costs once the engine has seen it: the two worlds of rebuildAllocWorlds
// are built, run and rebuilt in turn, and once both have been seen,
// rebuilding one after the other — validating the spec, resolving its names
// and building its world, algorithms included — allocates nothing.
func TestRebuildAllocatesNothing(t *testing.T) {
	if perRebuild := meanRebuildAllocs(t, rebuildAllocWorlds(), nil); perRebuild > 0 {
		t.Errorf("rebuilding a world of stock schemes allocates %.0f times per rebuild, want 0", perRebuild)
	}
}

// TestRebuildAllocatesOnlyAlgorithms is TestRebuildAllocatesNothing with
// every flow's algorithm a FlowSpec.Algorithm override, which the session
// never reuses: once both worlds have been seen, a rebuild allocates nothing
// beyond the algorithms the overrides build, and rebuildOverhead more.
func TestRebuildAllocatesOnlyAlgorithms(t *testing.T) {
	// algoAllocs is what the algorithms built so far cost, each at what its
	// constructor was measured to cost alone.
	var algoAllocs float64
	count := func(p Protocol) func() cc.Algorithm {
		cost := testing.AllocsPerRun(10, func() { p.New() })
		return func() cc.Algorithm {
			algoAllocs += cost
			return p.New()
		}
	}
	worlds := rebuildAllocWorlds()
	for _, spec := range worlds {
		protos, err := spec.resolveSchemes(Default(), nil)
		if err != nil {
			t.Fatal(err)
		}
		for f := range spec.Flows {
			spec.Flows[f].Algorithm = count(protos[f])
		}
		if spec.Churn != nil {
			for c := range spec.Churn.Classes {
				spec.Churn.Classes[c].Algorithm = count(protos[len(spec.Flows)+c])
			}
		}
	}
	if own := meanRebuildAllocs(t, worlds, &algoAllocs); own > rebuildOverhead {
		t.Errorf("rebuilding a world allocates %.0f times per rebuild besides its algorithms (want <= %d)", own, rebuildOverhead)
	}
}

// rebuildOverhead is what TestRebuildAllocatesOnlyAlgorithms allows a
// rebuild to allocate of its own: nothing.
const rebuildOverhead = 0

// meanRebuildAllocs builds, runs and rebuilds worlds in turn, round after
// round, and returns what a rebuild allocates once every world has been seen,
// less what *algos (zeroed before each rebuild, when non-nil) counts during
// it. Like testing.AllocsPerRun, it judges the mean over many rebuilds,
// truncated, so a stray allocation of the runtime's does not fail a test and
// one per rebuild does.
func meanRebuildAllocs(t *testing.T, worlds []Spec, algos *float64) float64 {
	t.Helper()
	if algos == nil {
		algos = new(float64)
	}
	var ss Session
	var res harness.Result
	const warm, measured = 2, 10
	var allocs float64
	for round := 0; round < warm+measured; round++ {
		for i := range worlds {
			*algos = 0
			before := mallocs()
			if err := ss.Rebuild(nil, &worlds[i], 0); err != nil {
				t.Fatal(err)
			}
			// Round 0 builds each world, round 1 grows the parts set's
			// lists to hold both; from round 2 on, both have been seen.
			if round >= warm {
				allocs += float64(mallocs()-before) - *algos
			}
			if err := ss.RunInto(int64(round), &res); err != nil {
				t.Fatal(err)
			}
		}
	}
	return math.Trunc(allocs / float64(measured*len(worlds)))
}
