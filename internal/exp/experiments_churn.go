package exp

import (
	"fmt"

	"repro/internal/campaign"
	"repro/internal/scenario"
)

// churnLoads are the offered loads (fraction of each class's bottleneck,
// evaluated at the median flow size) the churn experiment sweeps.
var churnLoads = []float64{0.25, 0.5, 0.85}

// churnSchemes are the protocols the churn experiment compares; "remy-1x" is
// registered from the dumbbell-trained rule table at run time.
var churnSchemes = []string{"remy-1x", "cubic", "newreno", "vegas"}

// ChurnSweep returns the flow-churn campaign definition the churn experiment
// executes: the offered-load × scheme grid over the flowchurn family. The
// load axis comes first, so cells enumerate load-major — the order the report
// tables print in. Exported so campaign tooling can start from the exact
// definition the experiment uses.
func ChurnSweep(cfg RunConfig) campaign.SweepSpec {
	w := scenario.ByBytesWorkload(scenario.ExponentialDist(100e3), scenario.ExponentialDist(0.5))
	return campaign.SweepSpec{
		Name:        "churn",
		Description: "Flow completion times under Poisson churn: RemyCC 1x vs Cubic/NewReno/Vegas at three offered loads (parking-lot topology, ICSI-Pareto flow sizes)",
		Family:      "flowchurn",
		Axes: []campaign.Axis{
			{Name: campaign.AxisOfferedLoad, Values: churnLoads},
			{Name: campaign.AxisScheme, Strings: churnSchemes},
		},
		DurationSeconds: cfg.Duration.Seconds(),
		Seed:            cfg.Seed,
		Repetitions:     cfg.Runs,
		Workload:        &w,
	}
}

// FlowChurn evaluates flow completion times under churn: the dumbbell-trained
// RemyCC against Cubic, NewReno and Vegas on the flow-churn family (the
// parking-lot topology under Poisson arrivals of ICSI-Pareto-sized
// transfers) at three offered loads. FCT is the metric that dominates modern
// congestion-control evaluation; the paper itself never measures it because
// its flows are a fixed population, which is exactly the limitation the churn
// engine removes.
//
// The load sweep runs as a campaign: the grid in ChurnSweep executes on the
// campaign executor, FCT numbers come from the campaign's O(1)
// streaming aggregates, and only the figure-style per-flow point clouds are
// collected on the side (via OnCell) before each cell's repetition results
// are discarded.
func FlowChurn(cfg RunConfig) (Report, error) {
	tree, err := LoadOrTrainRemyCC(cfg.AssetsDir, AssetRemy1x, LinkSpeedTrainSpec(15e6, 15e6, cfg.TrainBudget), cfg.Logf)
	if err != nil {
		return Report{}, err
	}
	reg, err := registryWith(scenario.Remy("remy-1x", tree))
	if err != nil {
		return Report{}, err
	}
	sweep := ChurnSweep(cfg)

	schemeResults := make([]SchemeResult, sweep.NumCells())
	records, err := runCampaign(sweep, reg, cfg, func(c campaign.Cell, results []scenario.Result) {
		load := churnLoads[c.Index/len(churnSchemes)]
		schemeResults[c.Index] = schemeResult(fmt.Sprintf("churn-%.2f/%s", load, c.Scheme), results)
	})
	if err != nil {
		return Report{}, err
	}

	rep := Report{
		ID:      "churn",
		Title:   "Flow churn: completion times under Poisson arrivals (RemyCC 1x vs Cubic/NewReno/Vegas, three offered loads)",
		Schemes: schemeResults,
	}
	// Records come back sorted by cell index: load-major, schemes in order.
	for i, rec := range records {
		if i%len(churnSchemes) == 0 {
			rep.Lines = append(rep.Lines, fmt.Sprintf("-- offered load %.2f --", churnLoads[i/len(churnSchemes)]))
			rep.Lines = append(rep.Lines, fmt.Sprintf("%-16s %9s %9s %9s %10s %10s %10s %10s",
				"scheme", "spawned", "done", "rejected", "mean FCT", "p50", "p95", "p99"))
		}
		a := rec.Aggregate
		rep.Lines = append(rep.Lines, fmt.Sprintf("%-16s %9d %9d %9d %7.1f ms %7.1f ms %7.1f ms %7.1f ms",
			rec.Scheme, a.FlowsSpawned, a.FlowsCompleted, a.FlowsRejected,
			a.FCT.MeanMs, a.FCT.P50Ms, a.FCT.P95Ms, a.FCT.P99Ms))
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("%d runs of %v per scheme per load; parking-lot topology (10/6 Mbps), ICSI-Pareto flow sizes (+16 kB), 512-flow live cap", cfg.Runs, cfg.Duration),
		"offered load is defined at the size distribution's median (the ICSI Pareto fit has no finite mean)",
		"p50/p95/p99 are count-weighted means of per-run streaming (P²) estimates",
		"executed as the \"churn\" campaign (internal/campaign); each cell's seed derives from the campaign seed and the cell ID")
	return rep, nil
}
