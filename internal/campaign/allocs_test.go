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
	// per-rep result assembly — each repetition's rows, since a run's first
	// cell has no earlier cell's results to write over: 4.0 allocs/rep
	// measured, 7.0 under -race (whose sync.Pool drops items at random). The
	// bound of 7.5 is the plain measurement plus that margin, and still
	// catches any reintroduced per-rep construction.
	if perRep > 7.5 {
		t.Fatalf("steady-state campaign allocates %.1f allocs/rep; warm-start pooling has regressed (want <= 7.5)", perRep)
	}
}

// TestCampaignCellAllocs bounds the campaign's own per-cell bookkeeping:
// the 12-cell test sweep, warm, through Executor.Run, BuildReport, Encode and
// WriteCSV. Every cell's identity is rendered from axis strings formatted
// once per run, report rows are appended without boxing, and repetition
// summaries sort the worker's scratch in place, and a rebuilt world's stock
// algorithms come out of its session's spares; the run keeps one aggregator
// and one manifest encoder, and a cell's repetitions write over an earlier
// cell's results and rows. What remains per cell is its spec, its ID, its
// share of the report and of the run's first cells' rows.
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

	// 15.0 allocs/cell measured, 17.7-18.2 under -race. The bound of 19 is
	// the plain measurement plus that margin; results made anew for every
	// cell (21.5 measured) or the family built one option at a time again
	// (22.6) each cross it. A new aggregator per cell (17.6) alone does not,
	// which TestCellAggregatorResetIsNew covers instead.
	if perCell > 19 {
		t.Fatalf("campaign pass allocates %.1f allocs/cell; per-cell bookkeeping has regressed (want <= 19)", perCell)
	}
}
