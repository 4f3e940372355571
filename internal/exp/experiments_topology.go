package exp

import (
	"fmt"

	"repro/internal/scenario"
)

// BeyondDumbbell evaluates a dumbbell-trained RemyCC off its training
// distribution, on the three canonical beyond-dumbbell topology families the
// paper's §7 leaves open: the two-bottleneck parking lot, the dumbbell with
// unresponsive on/off cross traffic, and the asymmetric reverse path whose
// ACK channel is itself congestible. Cubic and Cubic-over-sfqCoDel run the
// same scenarios as the human-designed baselines.
//
// The RemyCC was optimized for a single 15 Mbps bottleneck with a pure-delay
// reverse path, so this report probes exactly the generalization question the
// paper raises: how brittle is the learned protocol when the path stops
// matching the prior?
func BeyondDumbbell(cfg RunConfig) (Report, error) {
	tree, err := LoadOrTrainRemyCC(cfg.AssetsDir, AssetRemy1x, LinkSpeedTrainSpec(15e6, 15e6, cfg.TrainBudget), cfg.Logf)
	if err != nil {
		return Report{}, err
	}
	reg, err := registryWith(scenario.Remy("remy-1x", tree))
	if err != nil {
		return Report{}, err
	}
	schemes := []string{"remy-1x", "cubic", "cubic/sfqcodel"}
	w := scenario.ByBytesWorkload(scenario.ExponentialDist(100e3), scenario.ExponentialDist(0.5))
	runner := cfg.runner(reg)

	rep := Report{
		ID:    "beyond",
		Title: "Beyond the dumbbell: RemyCC (1x) vs Cubic and Cubic/sfqCoDel on multi-bottleneck, cross-traffic and asymmetric paths",
	}
	for _, fam := range scenario.BeyondDumbbellFamilies() {
		cfg.logf("  family %s", fam.Name)
		results := make([]SchemeResult, 0, len(schemes))
		for _, scheme := range schemes {
			spec := fam.Build(scenario.FamilyConfig{
				Scheme:          scheme,
				Workload:        w,
				DurationSeconds: cfg.Duration.Seconds(),
				Seed:            cfg.Seed,
				Repetitions:     cfg.Runs,
			})
			runs, err := runner.RunOne(spec)
			if err != nil {
				return Report{}, fmt.Errorf("exp: beyond/%s/%s: %w", fam.Name, scheme, err)
			}
			sr := SchemeResult{Protocol: fam.Name + "/" + scheme}
			for _, run := range runs {
				// The unresponsive cbr source is scenery, not a contestant: it
				// does not belong in the scheme's throughput-delay cloud.
				filtered := run
				filtered.Res.Flows = nil
				for _, f := range run.Res.Flows {
					if f.Algorithm != "cbr" {
						filtered.Res.Flows = append(filtered.Res.Flows, f)
					}
				}
				sr.accumulate(filtered)
			}
			sr.summarize(1)
			results = append(results, sr)
		}
		rep.Schemes = append(rep.Schemes, results...)
		rep.Lines = append(rep.Lines, fmt.Sprintf("-- %s --", fam.Name))
		rep.Lines = append(rep.Lines, throughputDelayLines(results)...)
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("%d runs of %v per scheme per family; remy-1x trained for a single 15 Mbps dumbbell bottleneck", cfg.Runs, cfg.Duration),
		"parking lot: 10 and 6 Mbps bottlenecks in series; cross traffic: on/off 5 Mbps CBR; asymmetric: 300 kbps ACK channel")
	return rep, nil
}
