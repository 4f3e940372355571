package scenario

import (
	"runtime"
	"testing"

	"repro/internal/cc"
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
// both have been seen, rebuilding one after the other — validating the spec,
// resolving its names and building its world — allocates nothing beyond the
// algorithms the new world's schemes build, which the session does not own,
// and rebuildOverhead more.
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
	fc := FamilyConfig{Scheme: "newreno", Workload: ByBytesWorkload(ExponentialDist(300_000), ExponentialDist(0.05)),
		DurationSeconds: 1, Seed: 11, OutageSeconds: 0.1, BurstLoss: 0.3}
	churn := FlowChurnSpec(fc)
	churn.Faults = LossyOutageSpec(fc).Faults
	churn.Faults.Links[0].Link = "hop1"
	dumbbell := New(WithLink(8e6), WithQueue(QueueSfqCoDel, 200), WithDuration(1), WithSeed(11),
		WithFlows(2, "cubic/sfqcodel", 60, fc.Workload))
	worlds := []Spec{churn, dumbbell}
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
	var ss Session
	for round := 0; round < 4; round++ {
		for i := range worlds {
			algoAllocs = 0
			before := mallocs()
			if err := ss.Rebuild(nil, &worlds[i], 0); err != nil {
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
