package scenario

import (
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

// TestRebuildAllocatesOnlyAlgorithms pins what rebuilding a world costs once
// the engine has seen it: a flow-churn parking lot with faults and a
// two-flow sfqCoDel dumbbell are built, run and rebuilt in turn, and once
// both have been seen, rebuilding one after the other allocates nothing beyond
// the algorithms the new world's scheme builds — which the session does not
// own — and rebuildOverhead more.
func TestRebuildAllocatesOnlyAlgorithms(t *testing.T) {
	// algoAllocs is what the algorithms built so far cost, each at what its
	// factory was measured to cost alone.
	var algoAllocs float64
	count := func(new func() cc.Algorithm) func() cc.Algorithm {
		cost := testing.AllocsPerRun(10, func() { new() })
		return func() cc.Algorithm {
			algoAllocs += cost
			return new()
		}
	}
	fc := FamilyConfig{Scheme: "newreno", Workload: ByBytesWorkload(ExponentialDist(300_000), ExponentialDist(0.05)),
		DurationSeconds: 1, Seed: 11, OutageSeconds: 0.1, BurstLoss: 0.3}
	churn := FlowChurnSpec(fc)
	churn.Faults = LossyOutageSpec(fc).Faults
	churn.Faults.Links[0].Link = "hop1"
	dumbbell := New(WithLink(8e6), WithQueue(QueueSfqCoDel, 200), WithDuration(1), WithSeed(11),
		WithFlows(2, "cubic/sfqcodel", 60, fc.Workload))
	var worlds [2]harness.Scenario
	for i, spec := range []Spec{churn, dumbbell} {
		scn, _, err := spec.Compile(nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for f := range scn.Flows {
			scn.Flows[f].NewAlgorithm = count(scn.Flows[f].NewAlgorithm)
		}
		for c := range scn.Churn {
			scn.Churn[c].NewAlgorithm = count(scn.Churn[c].NewAlgorithm)
		}
		worlds[i] = scn
	}
	ss, err := harness.NewSession(worlds[0])
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		for i, w := range worlds {
			algoAllocs = 0
			before := mallocs()
			if err := ss.Rebuild(w); err != nil {
				t.Fatal(err)
			}
			own, algos := float64(mallocs()-before)-algoAllocs, algoAllocs
			if _, err := ss.Run(int64(round)); err != nil {
				t.Fatal(err)
			}
			// Round 0 builds each world, round 1 grows the parts set's
			// lists to hold both; from round 2 on, both have been seen.
			if round >= 2 && own > rebuildOverhead {
				t.Errorf("round %d: rebuilding world %d allocates %.0f times besides its algorithms' %.0f (want <= %d)",
					round, i, own, algos, rebuildOverhead)
			}
		}
	}
}

// rebuildOverhead is what TestRebuildAllocatesOnlyAlgorithms allows a
// rebuild to allocate of its own: nothing.
const rebuildOverhead = 0
