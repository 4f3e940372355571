package exp

import (
	"fmt"

	"repro/internal/campaign"
	"repro/internal/scenario"
)

// faultOutages are the mid-run bottleneck outage lengths (seconds) the faults
// experiment sweeps; 0 is the fault-free control column.
var faultOutages = []float64{0, 0.5, 2}

// faultBurstLosses are the Gilbert–Elliott bad-state drop probabilities the
// faults experiment sweeps; 0 disables the loss process.
var faultBurstLosses = []float64{0, 0.2, 0.5}

// faultSchemes are the protocols the faults experiment compares; "remy-1x" is
// registered from the dumbbell-trained rule table at run time.
var faultSchemes = []string{"remy-1x", "cubic", "newreno", "vegas"}

// FaultsSweep returns the robustness campaign definition the faults
// experiment executes: the outage-length × burst-loss × scheme grid over the
// lossy-outage family. Outage length is the outermost axis, so cells
// enumerate outage-major — the order the report tables print in. Exported so
// campaign tooling can start from the exact definition the experiment uses.
func FaultsSweep(cfg RunConfig) campaign.SweepSpec {
	return campaign.SweepSpec{
		Name:        "faults",
		Description: "Robustness under deterministic faults: RemyCC 1x vs Cubic/NewReno/Vegas on the lossy-outage dumbbell across outage lengths and Gilbert–Elliott burst-loss intensities",
		Family:      "lossyoutage",
		Axes: []campaign.Axis{
			{Name: campaign.AxisOutageS, Values: faultOutages},
			{Name: campaign.AxisBurstLoss, Values: faultBurstLosses},
			{Name: campaign.AxisScheme, Strings: faultSchemes},
		},
		DurationSeconds: cfg.Duration.Seconds(),
		Seed:            cfg.Seed,
		Repetitions:     cfg.Runs,
	}
}

// Faults evaluates robustness outside the training distribution: the
// dumbbell-trained RemyCC against Cubic, NewReno and Vegas on the
// lossy-outage family — the 10 Mbps dumbbell with a mid-run bottleneck
// blackout and a Gilbert–Elliott burst-loss process, swept across outage
// lengths and bad-state loss intensities. The paper trains and evaluates
// RemyCC on well-behaved links; timed outages and correlated (non-congestive)
// loss are exactly the conditions its offline optimization never saw, so this
// grid probes how gracefully the learned controller degrades against
// hand-designed loss-recovery machinery.
//
// The grid runs as a campaign on the fail-safe executor: metrics come from
// the campaign's O(1) streaming aggregates, and per-cell fault-drop counts
// are collected on the side (via OnCell) before repetition results are
// discarded.
func Faults(cfg RunConfig) (Report, error) {
	tree, err := LoadOrTrainRemyCC(cfg.AssetsDir, AssetRemy1x, LinkSpeedTrainSpec(15e6, 15e6, cfg.TrainBudget), cfg.Logf)
	if err != nil {
		return Report{}, err
	}
	reg, err := registryWith(scenario.Remy("remy-1x", tree))
	if err != nil {
		return Report{}, err
	}
	sweep := FaultsSweep(cfg)

	faultDrops := make([]int64, sweep.NumCells())
	exec := campaign.Executor{
		Registry: reg,
		Workers:  cfg.workers(),
		Logf:     cfg.Logf,
		// OnCell calls are serialized, so the slice writes do not race.
		OnCell: func(c campaign.Cell, results []scenario.Result) {
			for _, r := range results {
				faultDrops[c.Index] += r.Res.FaultDropped
			}
		},
	}
	records, err := exec.Run(sweep, campaign.RunOptions{})
	if err != nil {
		return Report{}, fmt.Errorf("exp: faults campaign: %w", err)
	}

	rep := Report{
		ID:    "faults",
		Title: "Faults: link outages and burst loss on the dumbbell (RemyCC 1x vs Cubic/NewReno/Vegas)",
	}
	// Records come back sorted by cell index: outage-major, then burst loss,
	// schemes innermost.
	perBlock := len(faultSchemes)
	for i, rec := range records {
		if i%perBlock == 0 {
			block := i / perBlock
			outage := faultOutages[block/len(faultBurstLosses)]
			burst := faultBurstLosses[block%len(faultBurstLosses)]
			rep.Lines = append(rep.Lines, fmt.Sprintf("-- outage %.1f s, burst loss %.0f%% --", outage, burst*100))
			rep.Lines = append(rep.Lines, fmt.Sprintf("%-16s %10s %10s %9s %8s %12s",
				"scheme", "tput Mbps", "delay ms", "utility", "starved", "fault drops"))
		}
		a := rec.Aggregate
		rep.Lines = append(rep.Lines, fmt.Sprintf("%-16s %10.3f %10.2f %9.3f %8d %12d",
			rec.Scheme, a.ThroughputMbps.Mean, a.QueueDelayMs.Mean, a.UtilityMean,
			a.StarvedFlows, faultDrops[rec.Index]))
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("%d runs of %v per scheme per fault cell; lossy-outage family (10 Mbps dumbbell, two flows, RTT 100 ms)", cfg.Runs, cfg.Duration),
		"outages start at 40% of the run; burst loss is a Gilbert–Elliott process (mean burst 4 packets, bad state entered on ~1% of packets)",
		"the outage 0 s / burst loss 0% block is the fault-free control; fault drops count packets the loss process discarded (outages queue, they do not drop)",
		"executed as the \"faults\" campaign (internal/campaign); each cell's seed derives from the campaign seed and the cell ID, and each link's fault processes are decorrelated by link index")
	return rep, nil
}
