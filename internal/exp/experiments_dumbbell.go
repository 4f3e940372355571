package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// loadGeneralPurposeRemyCCs returns the three δ ∈ {0.1, 1, 10} RemyCCs used
// throughout Figures 4–10, loading them from assets or training small
// replacements.
func loadGeneralPurposeRemyCCs(cfg RunConfig) (map[float64]*core.WhiskerTree, error) {
	assets := map[float64]string{0.1: AssetRemyDelta01, 1: AssetRemyDelta1, 10: AssetRemyDelta10}
	out := make(map[float64]*core.WhiskerTree, len(assets))
	// Fixed δ order: iterating the map here made progress logs — and, when an
	// asset is missing, the fallback-training order — vary run to run.
	for _, delta := range []float64{0.1, 1, 10} {
		tree, err := LoadOrTrainRemyCC(cfg.AssetsDir, assets[delta], GeneralPurposeTrainSpec(delta, cfg.TrainBudget), cfg.Logf)
		if err != nil {
			return nil, err
		}
		out[delta] = tree
	}
	return out, nil
}

// remyProtocols converts the δ-indexed trees into protocols named the way
// the paper labels them.
func remyProtocols(trees map[float64]*core.WhiskerTree) []scenario.Protocol {
	return []scenario.Protocol{
		scenario.Remy("remy-d0.1", trees[0.1]),
		scenario.Remy("remy-d1", trees[1]),
		scenario.Remy("remy-d10", trees[10]),
	}
}

// dumbbellSpec builds the single-bottleneck scenario of §5.2: a fixed-rate
// link, a 1000-packet buffer, and n senders alternating between transfers
// drawn from `flowLengths` and exponentially distributed off times. The
// bottleneck queue follows the protocol under test.
func dumbbellSpec(n int, linkRateBps float64, rttMs float64, flowLengths scenario.DistSpec,
	meanOffSeconds float64, duration sim.Time) specBuilder {
	return func(p scenario.Protocol) (scenario.Spec, error) {
		return scenario.New(
			scenario.WithLink(linkRateBps),
			scenario.WithQueue(p.QueueKind(), 1000),
			scenario.WithDuration(duration.Seconds()),
			scenario.WithFlows(n, p.Name, rttMs,
				scenario.ByBytesWorkload(flowLengths, scenario.ExponentialDist(meanOffSeconds))),
		), nil
	}
}

// Figure4 reproduces the n = 8 dumbbell throughput–delay plot: 15 Mbps,
// 150 ms RTT, exponential 100 kB transfers with 0.5 s mean off time, all
// schemes including the three RemyCCs.
func Figure4(cfg RunConfig) (Report, error) {
	trees, err := loadGeneralPurposeRemyCCs(cfg)
	if err != nil {
		return Report{}, err
	}
	protocols := append(remyProtocols(trees), scenario.BaselineProtocols()...)
	reg, err := registryWith(protocols...)
	if err != nil {
		return Report{}, err
	}
	build := dumbbellSpec(8, 15e6, 150, scenario.ExponentialDist(100e3), 0.5, cfg.Duration)
	schemes, err := runSchemes(protocols, build, reg, cfg)
	if err != nil {
		return Report{}, err
	}
	rep := Report{
		ID:      "fig4",
		Title:   "Dumbbell 15 Mbps, n=8: throughput vs queueing delay (paper Figure 4)",
		Schemes: schemes,
		Lines:   throughputDelayLines(schemes),
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf("%d runs of %v per scheme (paper: 128 runs of 100 s)", cfg.Runs, cfg.Duration))
	return rep, nil
}

// Table1 reproduces the first §1 summary table: the median speedup and
// median delay reduction of RemyCC (δ=0.1) over each existing protocol on
// the 15 Mbps, n=8 dumbbell.
func Table1(cfg RunConfig) (Report, error) {
	rep, err := Figure4(cfg)
	if err != nil {
		return Report{}, err
	}
	out := Report{
		ID:      "table1",
		Title:   "Dumbbell 15 Mbps, n=8: RemyCC (δ=0.1) speedups over existing protocols (paper §1, first table)",
		Schemes: rep.Schemes,
		Notes:   rep.Notes,
		Lines:   speedupLines("remy-d0.1", rep.Schemes),
	}
	return out, nil
}

// Figure5 reproduces the n = 12 dumbbell plot whose transfer lengths come
// from the ICSI trace's Pareto fit (Figure 3) plus 16 kB, with 0.2 s mean
// off time.
func Figure5(cfg RunConfig) (Report, error) {
	trees, err := loadGeneralPurposeRemyCCs(cfg)
	if err != nil {
		return Report{}, err
	}
	protocols := append(remyProtocols(trees), scenario.BaselineProtocols()...)
	reg, err := registryWith(protocols...)
	if err != nil {
		return Report{}, err
	}
	build := dumbbellSpec(12, 15e6, 150, scenario.ICSIDist(16384), 0.2, cfg.Duration)
	schemes, err := runSchemes(protocols, build, reg, cfg)
	if err != nil {
		return Report{}, err
	}
	rep := Report{
		ID:      "fig5",
		Title:   "Dumbbell 15 Mbps, n=12, ICSI flow lengths: throughput vs queueing delay (paper Figure 5)",
		Schemes: schemes,
		Lines:   throughputDelayLines(schemes),
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf("%d runs of %v per scheme; ½-σ ellipses in the paper", cfg.Runs, cfg.Duration))
	return rep, nil
}

// SequencePoint is one sample of the Figure 6 sequence plot.
type SequencePoint struct {
	TimeSeconds float64
	// CumulativePackets is the number of packets of the observed RemyCC flow
	// delivered so far.
	CumulativePackets int64
}

// Figure6 reproduces the sequence plot: one RemyCC flow shares a 15 Mbps
// link with a competing RemyCC flow; halfway through the run the competitor
// departs, and the observed flow should roughly double its delivery rate
// within about one RTT.
func Figure6(cfg RunConfig) (Report, []SequencePoint, error) {
	trees, err := loadGeneralPurposeRemyCCs(cfg)
	if err != nil {
		return Report{}, nil, err
	}
	reg, err := registryWith(remyProtocols(trees)...)
	if err != nil {
		return Report{}, nil, err
	}
	duration := cfg.Duration
	if duration < 10*sim.Second {
		duration = 10 * sim.Second
	}
	half := duration / 2

	var series []SequencePoint
	var delivered int64
	observed := scenario.WorkloadSpec{
		Mode:    scenario.ModeByTime,
		On:      scenario.ConstantDist(duration.Seconds()),
		Off:     scenario.ConstantDist(duration.Seconds()),
		StartOn: true,
	}
	competitor := scenario.WorkloadSpec{
		Mode:    scenario.ModeByTime,
		On:      scenario.ConstantDist(half.Seconds()),
		Off:     scenario.ConstantDist(10 * duration.Seconds()),
		StartOn: true,
	}
	spec := scenario.New(
		scenario.WithName("fig6-sequence"),
		scenario.WithLink(15e6),
		scenario.WithQueue(scenario.QueueDropTail, 1000),
		scenario.WithDuration(duration.Seconds()),
		scenario.WithSeed(cfg.Seed),
		scenario.WithFlow(scenario.FlowSpec{Scheme: "remy-d1", RTTMs: 150, Workload: observed}),
		scenario.WithFlow(scenario.FlowSpec{Scheme: "remy-d1", RTTMs: 150, Workload: competitor}),
		scenario.WithOnDeliver(func(p *netsim.Packet, now sim.Time) {
			if p.Flow != 0 {
				return
			}
			delivered++
			series = append(series, SequencePoint{TimeSeconds: now.Seconds(), CumulativePackets: delivered})
		}),
	)
	if _, err := (scenario.Runner{Registry: reg, Workers: 1}).RunOne(spec); err != nil {
		return Report{}, nil, err
	}

	// Delivery rates in the second halves of each phase (to skip startup and
	// convergence transients).
	rateBetween := func(lo, hi float64) float64 {
		var count int64
		for _, pt := range series {
			if pt.TimeSeconds >= lo && pt.TimeSeconds < hi {
				count++
			}
		}
		if hi <= lo {
			return 0
		}
		return float64(count) * float64(netsim.MTU) * 8 / (hi - lo)
	}
	sharedRate := rateBetween(half.Seconds()*0.5, half.Seconds())
	aloneRate := rateBetween(half.Seconds()*1.5, duration.Seconds())

	rep := Report{
		ID:      "fig6",
		Title:   "Sequence plot: RemyCC flow when a competing flow departs (paper Figure 6)",
		Schemes: nil,
		Lines: []string{
			fmt.Sprintf("delivery rate while sharing the link:  %.2f Mbps", sharedRate/1e6),
			fmt.Sprintf("delivery rate after competitor departs: %.2f Mbps", aloneRate/1e6),
			fmt.Sprintf("speedup after departure: %.2fx (paper: about 2x, within roughly one RTT)", ratioOrNaN(aloneRate, sharedRate)),
			fmt.Sprintf("sequence samples recorded: %d", len(series)),
		},
	}
	return rep, series, nil
}
