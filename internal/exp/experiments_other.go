package exp

import (
	"fmt"

	"repro/internal/campaign"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Figure3 validates the workload generator against the paper's Figure 3: the
// sampled flow-length distribution must match the Pareto(Xm=147, α=0.5)+40 B
// CDF the paper fits to the ICSI trace.
func Figure3(cfg RunConfig) (Report, error) {
	dist := workload.Pareto{Xm: 147, Alpha: 0.5, Shift: 40}
	rng := sim.NewRNG(cfg.Seed)
	n := 200000
	samples := make([]float64, n)
	for i := range samples {
		samples[i] = dist.Sample(rng)
	}
	lines := []string{fmt.Sprintf("%-14s %16s %16s", "flow length", "empirical CDF", "analytic CDF")}
	maxErr := 0.0
	for _, x := range []float64{200, 1000, 10000, 100000, 1e6, 1e7} {
		count := 0
		for _, s := range samples {
			if s <= x {
				count++
			}
		}
		emp := float64(count) / float64(n)
		ana := dist.CDF(x)
		if diff := emp - ana; diff > maxErr {
			maxErr = diff
		} else if -diff > maxErr {
			maxErr = -diff
		}
		lines = append(lines, fmt.Sprintf("%-14.0f %16.4f %16.4f", x, emp, ana))
	}
	lines = append(lines, fmt.Sprintf("max |empirical - analytic| = %.4f over %d samples", maxErr, n))
	return Report{
		ID:    "fig3",
		Title: "Flow-length CDF: Pareto(Xm=147, alpha=0.5)+40B fit (paper Figure 3)",
		Lines: lines,
	}, nil
}

// Figure10 reproduces the RTT-fairness experiment (§5.4): four senders with
// RTTs of 50, 100, 150 and 200 ms share a 10 Mbps bottleneck; the paper
// reports each sender's normalized share of throughput, comparing the three
// RemyCCs against Cubic-over-sfqCoDel.
func Figure10(cfg RunConfig) (Report, error) {
	trees, err := loadGeneralPurposeRemyCCs(cfg)
	if err != nil {
		return Report{}, err
	}
	protocols := append(remyProtocols(trees), scenario.CubicSfqCoDel())
	reg, err := registryWith(protocols...)
	if err != nil {
		return Report{}, err
	}
	rtts := []float64{50, 100, 150, 200}
	w := scenario.ByBytesWorkload(scenario.ICSIDist(16384), scenario.ExponentialDist(0.2))
	specs := schemeSpecs(protocols, func(p scenario.Protocol) scenario.Spec {
		spec := scenario.New(
			scenario.WithLink(10e6),
			scenario.WithQueue(p.QueueKind(), 1000),
			scenario.WithDuration(cfg.Duration.Seconds()),
		)
		for _, rtt := range rtts {
			spec.Flows = append(spec.Flows, scenario.FlowSpec{Scheme: p.Name, RTTMs: rtt, Workload: w})
		}
		return spec
	})

	// This experiment needs per-RTT (i.e. per-flow-position) shares, so it
	// inspects each repetition's flow results rather than pooling them.
	schemes := make([]SchemeResult, len(protocols))
	shares := make([][]float64, len(protocols))
	sweep := campaign.SweepSpec{Name: "fig10", Specs: specs, Repetitions: cfg.Runs}
	_, err = runCampaign(sweep, reg, cfg, func(c campaign.Cell, results []scenario.Result) {
		perRTT := make([]float64, len(rtts))
		counts := make([]int, len(rtts))
		sr := SchemeResult{Protocol: protocols[c.Index].Name}
		for _, res := range results {
			var total float64
			for _, f := range res.Res.Flows {
				total += f.Metrics.Mbps()
			}
			if total <= 0 {
				continue
			}
			for i, f := range res.Res.Flows {
				perRTT[i] += f.Metrics.Mbps() / total
				counts[i]++
				sr.Points = append(sr.Points, stats.Point{DelayMs: f.Metrics.QueueingDelayMs(), ThroughputMbps: f.Metrics.Mbps()})
				sr.ThroughputsMbps = append(sr.ThroughputsMbps, f.Metrics.Mbps())
				sr.DelaysMs = append(sr.DelaysMs, f.Metrics.QueueingDelayMs())
			}
		}
		for i := range perRTT {
			if counts[i] > 0 {
				perRTT[i] /= float64(counts[i])
			}
			// Normalize so an equal share is 1.0 (4 flows -> multiply by 4).
			perRTT[i] *= float64(len(rtts))
		}
		sr.summarize(1)
		schemes[c.Index], shares[c.Index] = sr, perRTT
	})
	if err != nil {
		return Report{}, err
	}
	lines := []string{fmt.Sprintf("%-16s %10s %10s %10s %10s", "scheme", "50ms", "100ms", "150ms", "200ms")}
	for i, perRTT := range shares {
		lines = append(lines, fmt.Sprintf("%-16s %10.2f %10.2f %10.2f %10.2f",
			protocols[i].Name, perRTT[0], perRTT[1], perRTT[2], perRTT[3]))
	}
	lines = append(lines, "(1.0 = exactly the fair share; lower at long RTTs indicates RTT unfairness)")

	rep := Report{
		ID:      "fig10",
		Title:   "Normalized throughput share vs RTT, 4 senders on 10 Mbps (paper Figure 10)",
		Schemes: schemes,
		Lines:   lines,
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf("%d runs of %v per scheme", cfg.Runs, cfg.Duration))
	return rep, nil
}

// Table3 reproduces the §5.5 datacenter comparison: 64 senders sharing a
// 10 Gbps link with 4 ms RTT, 20 MB mean transfers, 100 ms mean off times;
// DCTCP over an ECN gateway versus a RemyCC (trained for minimum potential
// delay) over a 1000-packet DropTail queue.
func Table3(cfg RunConfig) (Report, error) {
	tree, err := LoadOrTrainRemyCC(cfg.AssetsDir, AssetRemyDC, DatacenterTrainSpec(cfg.TrainBudget), cfg.Logf)
	if err != nil {
		return Report{}, err
	}
	protocols := []scenario.Protocol{scenario.DCTCP(), scenario.Remy("remy-dc", tree)}
	reg, err := registryWith(protocols...)
	if err != nil {
		return Report{}, err
	}
	// The paper simulates 100 s at 10 Gbps; that is hundreds of millions of
	// packet events, so the reproduction uses a scaled duration (documented).
	duration := cfg.Duration
	if duration > 5*sim.Second {
		duration = 5 * sim.Second
	}
	senders := 64
	if cfg.Runs <= 2 && cfg.Duration <= 10*sim.Second {
		senders = 32 // keep the quick configuration genuinely quick
	}
	runs := cfg.Runs
	if runs > 4 {
		runs = 4
	}
	localCfg := cfg
	localCfg.Runs = runs

	build := func(p scenario.Protocol) scenario.Spec {
		return scenario.New(
			scenario.WithLink(10e9),
			scenario.WithQueue(p.QueueKind(), 1000),
			scenario.WithECNThreshold(65),
			scenario.WithDuration(duration.Seconds()),
			scenario.WithFlows(senders, p.Name, 4,
				scenario.ByBytesWorkload(scenario.ExponentialDist(20e6), scenario.ExponentialDist(0.1))),
		)
	}
	schemes, err := runSpecs("table3", schemeSpecs(protocols, build), reg, localCfg)
	if err != nil {
		return Report{}, err
	}

	lines := []string{fmt.Sprintf("%-12s %22s %22s", "scheme", "tput: mean, median", "rtt: mean, median")}
	for _, s := range schemes {
		lines = append(lines, fmt.Sprintf("%-12s %9.0f, %6.0f Mbps %10.1f, %5.1f ms",
			s.Protocol, stats.Mean(s.ThroughputsMbps), stats.Median(s.ThroughputsMbps),
			stats.Mean(s.MeanRTTsMs), stats.Median(s.MeanRTTsMs)))
	}
	rep := Report{
		ID:      "table3",
		Title:   "Datacenter: DCTCP (ECN) vs RemyCC (DropTail), 64 senders on 10 Gbps (paper §5.5 table)",
		Schemes: schemes,
		Lines:   lines,
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("duration scaled to %v and %d senders (paper: 100 s, 64 senders) to bound event count", duration, senders))
	return rep, nil
}

// Table4 reproduces the §5.6 competing-protocols tables: one RemyCC flow
// sharing a 15 Mbps, 150 ms bottleneck with one Compound flow (at three mean
// off times) and with one Cubic flow (at two mean transfer sizes). The
// heterogeneous flow mix is a single spec with two scheme entries.
func Table4(cfg RunConfig) (Report, error) {
	tree, err := LoadOrTrainRemyCC(cfg.AssetsDir, AssetRemyCompete, CompetingTrainSpec(cfg.TrainBudget), cfg.Logf)
	if err != nil {
		return Report{}, err
	}
	reg, err := registryWith(scenario.Remy("remy-compete", tree))
	if err != nil {
		return Report{}, err
	}

	pair := func(other scenario.Protocol, on scenario.DistSpec, offMean float64) scenario.Spec {
		w := scenario.ByBytesWorkload(on, scenario.ExponentialDist(offMean))
		return scenario.New(
			scenario.WithName("table4-remy-vs-"+other.Name),
			scenario.WithLink(15e6),
			scenario.WithQueue(scenario.QueueDropTail, 1000),
			scenario.WithDuration(cfg.Duration.Seconds()),
			scenario.WithFlow(scenario.FlowSpec{Scheme: "remy-compete", RTTMs: 150, Workload: w}),
			scenario.WithFlow(scenario.FlowSpec{Scheme: other.Name, RTTMs: 150, Workload: w}),
		)
	}
	offsMs := []float64{200, 100, 10}
	sizes := []float64{100e3, 1e6}
	var specs []scenario.Spec
	for _, offMs := range offsMs {
		specs = append(specs, pair(scenario.Compound(), scenario.ICSIDist(16384), offMs/1000))
	}
	for _, size := range sizes {
		specs = append(specs, pair(scenario.Cubic(), scenario.ExponentialDist(size), 0.5))
	}
	// remy and other hold each pair's mean throughputs over the runs in
	// which both flows were on.
	remy, other := make([]float64, len(specs)), make([]float64, len(specs))
	valid := make([]bool, len(specs))
	sweep := campaign.SweepSpec{Name: "table4", Specs: specs, Repetitions: cfg.Runs}
	_, err = runCampaign(sweep, reg, cfg, func(c campaign.Cell, results []scenario.Result) {
		var remySum, otherSum float64
		count := 0
		for _, res := range results {
			flows := res.Res.Flows
			if flows[0].Metrics.OnDuration <= 0 || flows[1].Metrics.OnDuration <= 0 {
				continue
			}
			remySum += flows[0].Metrics.Mbps()
			otherSum += flows[1].Metrics.Mbps()
			count++
		}
		if count > 0 {
			remy[c.Index], other[c.Index] = remySum/float64(count), otherSum/float64(count)
			valid[c.Index] = true
		}
	})
	if err != nil {
		return Report{}, err
	}
	for i, ok := range valid {
		if !ok {
			return Report{}, fmt.Errorf("exp: no valid runs for competing pair %q", specs[i].Name)
		}
	}

	lines := []string{"RemyCC vs Compound (ICSI flow lengths, varying mean off time):",
		fmt.Sprintf("  %-14s %16s %16s", "mean off time", "RemyCC tput", "Compound tput")}
	for i, offMs := range offsMs {
		lines = append(lines, fmt.Sprintf("  %11.0f ms %11.2f Mbps %11.2f Mbps", offMs, remy[i], other[i]))
	}
	lines = append(lines, "RemyCC vs Cubic (exponential flow lengths, 0.5 s mean off time):",
		fmt.Sprintf("  %-14s %16s %16s", "mean size", "RemyCC tput", "Cubic tput"))
	for i, size := range sizes {
		j := len(offsMs) + i
		lines = append(lines, fmt.Sprintf("  %11.0f kB %11.2f Mbps %11.2f Mbps", size/1e3, remy[j], other[j]))
	}
	rep := Report{
		ID:    "table4",
		Title: "Competing protocols: one RemyCC vs one Compound/Cubic flow (paper §5.6 tables)",
		Lines: lines,
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf("%d runs of %v per cell", cfg.Runs, cfg.Duration))
	return rep, nil
}

// Figure11 reproduces the prior-knowledge sensitivity study (§5.7): a RemyCC
// designed for exactly 15 Mbps ("1x"), a RemyCC designed for 4.7–47 Mbps
// ("10x"), and Cubic-over-sfqCoDel are evaluated as the true link speed
// sweeps across 4.7–47 Mbps, scoring each with the paper's
// log(throughput) − log(delay) objective.
func Figure11(cfg RunConfig) (Report, error) {
	tree1x, err := LoadOrTrainRemyCC(cfg.AssetsDir, AssetRemy1x, LinkSpeedTrainSpec(15e6, 15e6, cfg.TrainBudget), cfg.Logf)
	if err != nil {
		return Report{}, err
	}
	tree10x, err := LoadOrTrainRemyCC(cfg.AssetsDir, AssetRemy10x, LinkSpeedTrainSpec(4.7e6, 47e6, cfg.TrainBudget), cfg.Logf)
	if err != nil {
		return Report{}, err
	}
	protocols := []scenario.Protocol{scenario.Remy("remy-1x", tree1x), scenario.Remy("remy-10x", tree10x), scenario.CubicSfqCoDel()}
	reg, err := registryWith(protocols...)
	if err != nil {
		return Report{}, err
	}
	speeds := []float64{4.7e6, 8e6, 15e6, 27e6, 47e6}
	objective := stats.DefaultObjective(1)

	var specs []scenario.Spec
	for _, speed := range speeds {
		specs = append(specs, schemeSpecs(protocols, dumbbellSpec(2, speed, 150, scenario.ExponentialDist(100e3), 0.5, cfg.Duration))...)
	}
	results, err := runSpecs("fig11", specs, reg, cfg)
	if err != nil {
		return Report{}, err
	}

	lines := []string{fmt.Sprintf("%-14s %12s %12s %12s", "link speed", "remy-1x", "remy-10x", "cubic/sfqcodel")}
	for si, speed := range speeds {
		row := make(map[string]float64)
		for _, res := range results[si*len(protocols) : (si+1)*len(protocols)] {
			// Score each flow sample with Equation 1 (normalized throughput,
			// delay relative to the 150 ms propagation RTT) and average.
			var sum float64
			count := 0
			fairShare := speed / 2
			for i := range res.ThroughputsMbps {
				tput := res.ThroughputsMbps[i] * 1e6 / fairShare
				if tput <= 0 {
					tput = 1e-6
				}
				delay := (res.DelaysMs[i] + 150) / 150
				sum += objective.Score(tput, delay)
				count++
			}
			if count > 0 {
				row[res.Protocol] = sum / float64(count)
			}
		}
		lines = append(lines, fmt.Sprintf("%9.1f Mbps %12.2f %12.2f %12.2f",
			speed/1e6, row["remy-1x"], row["remy-10x"], row["cubic/sfqcodel"]))
	}
	rep := Report{
		ID:    "fig11",
		Title: "Prior-knowledge sensitivity: objective vs true link speed (paper Figure 11)",
		Lines: lines,
	}
	rep.Notes = append(rep.Notes,
		"scores are log(normalized throughput) - log(normalized delay), higher is better",
		fmt.Sprintf("%d runs of %v per (scheme, speed)", cfg.Runs, cfg.Duration))
	return rep, nil
}
