package campaign

import (
	"runtime"
	"testing"
)

// allocsSweep returns the steady-state workload: one rep-invariant flow-churn
// cell (fixed-rate link, so the compiled scenario is identical every rep and
// the runner reuses one warm session) executed reps times.
func allocsSweep(reps int) SweepSpec {
	return SweepSpec{
		Name:   "allocs",
		Family: "flowchurn", Scheme: "newreno",
		Axes:            []Axis{{Name: AxisOfferedLoad, Values: []float64{0.25}}},
		DurationSeconds: 2,
		Seed:            5,
		Repetitions:     reps,
	}
}

// TestCampaignSteadyStateAllocs pins the warm-start contract of the pooled
// engine/session path: across a warm 1000-repetition campaign cell, the
// per-repetition allocation count must stay a small fixed overhead (per-rep
// Result assembly, RNG splits, churn FCT summaries), nowhere near the
// thousands of allocations a cold engine+network+transport construction
// costs. A regression here means campaign runs stopped reusing warm state.
func TestCampaignSteadyStateAllocs(t *testing.T) {
	exec := Executor{Workers: 1, InnerWorkers: 1}
	measure := func(reps int) float64 {
		s := allocsSweep(reps)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := exec.Run(s, RunOptions{}); err != nil {
			t.Fatalf("campaign run: %v", err)
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / float64(reps)
	}

	// Warm-up: grow the engine pool, session caches and result buffers.
	measure(50)
	perRep := measure(1000)
	t.Logf("steady-state campaign: %.1f allocs/rep", perRep)

	// Cold construction of this cell costs several thousand allocations
	// (engine slab, heap and lane rings, network, transports, churn pools — see
	// BenchmarkFlowChurnCold in internal/scenario). The warm path
	// keeps only per-rep result assembly; 250 gives headroom over the ~63
	// measured while still catching any reintroduced per-rep construction.
	if perRep > 250 {
		t.Fatalf("steady-state campaign allocates %.1f allocs/rep; warm-start pooling has regressed (want <= 250)", perRep)
	}
}
