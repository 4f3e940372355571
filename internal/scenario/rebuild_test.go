package scenario

import (
	"math"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/cc"
	"repro/internal/core"
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
	if perRebuild := meanRebuildAllocs(t, nil, rebuildAllocWorlds(), nil, false); perRebuild > 0 {
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
	if own := meanRebuildAllocs(t, nil, worlds, &algoAllocs, false); own > rebuildOverhead {
		t.Errorf("rebuilding a world allocates %.0f times per rebuild besides its algorithms (want <= %d)", own, rebuildOverhead)
	}
}

// rebuildOverhead is what TestRebuildAllocatesOnlyAlgorithms allows a
// rebuild to allocate of its own: nothing.
const rebuildOverhead = 0

// remyAllocWorlds returns the benchmark's RemyCC worlds in small: 32
// datacenter RemyCC senders at 10 Gbps, whose send windows grow far past
// their first ring, and four RemyCC senders of another table, registered on
// reg, on a synthesized trace drawn afresh each rebuild.
func remyAllocWorlds(t *testing.T, reg *Registry) []Spec {
	t.Helper()
	tree, err := core.LoadFile(filepath.Join("..", "..", "assets", "remycc_delta1.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterRemy("remy-delta1", tree); err != nil {
		t.Fatal(err)
	}
	dc := New(WithLink(10e9), WithQueue("", 1000), WithDuration(0.05), WithSeed(11),
		WithFlow(FlowSpec{Scheme: "remy", RemyCC: filepath.Join("..", "..", "assets", "remycc_dc.json"), Count: 32, RTTMs: 4,
			Workload: ByBytesWorkload(ExponentialDist(20e6), ExponentialDist(0.1))}))
	cellular := New(WithLinkModel("verizon"), WithQueue("", 1000), WithDuration(1), WithSeed(11),
		WithFlows(4, "remy-delta1", 50, ByBytesWorkload(ExponentialDist(100e3), ExponentialDist(0.5))))
	return []Spec{dc, cellular}
}

// TestRebuildAndRunAllocateNothing is TestRebuildAllocatesNothing counting
// each world's run too, over its worlds and the RemyCC ones: once every world
// has been seen, rebuilding one after another and running it — RemyCC senders
// rebound to their tables, send windows regrown into the memory earlier worlds
// grew, the trace drawn into the last one's, the result collected into rows
// a run before sized — allocates nothing.
func TestRebuildAndRunAllocateNothing(t *testing.T) {
	reg := Default().Clone()
	worlds := append(rebuildAllocWorlds(), remyAllocWorlds(t, reg)...)
	if perRebuild := meanRebuildAllocs(t, reg, worlds, nil, true); perRebuild > 0 {
		t.Errorf("rebuilding and running a world allocates %.0f times per rebuild, want 0", perRebuild)
	}
}

// meanRebuildAllocs builds, runs and rebuilds worlds in turn, resolving their
// names against reg, round after round, and returns what a rebuild allocates
// once every world has been seen, less what *algos (zeroed before each
// rebuild, when non-nil) counts during it; with run set, what the run after it
// allocates counts too. Like testing.AllocsPerRun, it judges the mean over
// many rebuilds, truncated, so a stray allocation of the runtime's does not
// fail a test and one per rebuild does.
func meanRebuildAllocs(t *testing.T, reg *Registry, worlds []Spec, algos *float64, run bool) float64 {
	t.Helper()
	if algos == nil {
		algos = new(float64)
	}
	var ss Session
	// Each world collects into its own result: a world without churn classes
	// gives a nil Churn row list, as a new result would have, which drops
	// the capacity a churn world's rows left in a shared one.
	res := make([]harness.Result, len(worlds))
	const warm, measured = 2, 10
	var allocs float64
	for round := 0; round < warm+measured; round++ {
		for i := range worlds {
			*algos = 0
			before := mallocs()
			if err := ss.Rebuild(reg, &worlds[i], 0); err != nil {
				t.Fatal(err)
			}
			after := mallocs()
			// A counted run repeats its world's first exactly, so it needs
			// no packet, event or ring its world has not had before.
			seed := int64(round)
			if run {
				seed = worlds[i].Seed
			}
			if err := ss.RunInto(seed, &res[i]); err != nil {
				t.Fatal(err)
			}
			if run {
				after = mallocs()
			}
			// Round 0 builds each world, round 1 grows the parts set's
			// lists to hold them all; from round 2 on, all have been seen.
			if round >= warm {
				allocs += float64(after-before) - *algos
			}
		}
	}
	return math.Trunc(allocs / float64(measured*len(worlds)))
}
