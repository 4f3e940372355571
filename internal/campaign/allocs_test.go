package campaign

import (
	"io"
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
	exec := Executor{Workers: 1}
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
	// BenchmarkFlowChurnCold in internal/scenario). The warm path keeps only
	// per-rep result assembly: 4.2 allocs/rep measured, 7.2 under -race
	// (whose sync.Pool drops items at random). The bound of 10 is 2.4× the
	// plain measurement, and still catches any reintroduced per-rep
	// construction.
	if perRep > 10 {
		t.Fatalf("steady-state campaign allocates %.1f allocs/rep; warm-start pooling has regressed (want <= 10)", perRep)
	}
}

// TestCampaignCellAllocs bounds the campaign's own per-cell bookkeeping:
// the 12-cell test sweep, warm, through Executor.Run, BuildReport, Encode and
// WriteCSV. Every cell's identity is rendered from axis strings formatted
// once per run, report rows are appended without boxing, and repetition
// summaries sort the worker's scratch in place, and a rebuilt world's stock
// algorithms come out of its session's spares, so what remains per cell is
// its worlds' warm-up, the supervised attempt, the aggregate and the record's
// JSON.
func TestCampaignCellAllocs(t *testing.T) {
	s := testSweep()
	exec := Executor{Workers: 1}
	pass := func() {
		records, err := exec.Run(s, RunOptions{})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		rep, err := BuildReport(s, records)
		if err != nil {
			t.Fatalf("BuildReport: %v", err)
		}
		if _, err := rep.Encode(); err != nil {
			t.Fatalf("Encode: %v", err)
		}
		if err := rep.WriteCSV(io.Discard); err != nil {
			t.Fatalf("WriteCSV: %v", err)
		}
	}
	pass() // warm the session pool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pass()
	runtime.ReadMemStats(&after)
	perCell := float64(after.Mallocs-before.Mallocs) / float64(s.NumCells())
	t.Logf("campaign pass: %.1f allocs/cell", perCell)

	// 58 allocs/cell measured, 64-68 under -race, since a rebuilt world
	// takes its stock algorithms from the session's spares. The bound of 70
	// is 20% over the plain measurement; building every algorithm anew
	// again (91 measured) crosses it, and so does writing the report's CSV
	// through boxed fields and encoding/csv again.
	if perCell > 70 {
		t.Fatalf("campaign pass allocates %.1f allocs/cell; per-cell bookkeeping has regressed (want <= 70)", perCell)
	}
}
