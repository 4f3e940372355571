package exp

import (
	"fmt"

	"repro/internal/scenario"
	"repro/internal/sim"
)

// cellularSpec builds the §5.3 trace-driven scenario: n senders share a
// cellular downlink whose delivery opportunities come from a registered
// synthetic LTE link model (one fresh trace per repetition, seeded
// deterministically), with a 50 ms propagation RTT and a 1000-packet
// tail-drop buffer. XCP is supplied with the trace's long-term average rate,
// as in the paper (the scenario compiler computes it automatically).
func cellularSpec(model string, n int, duration sim.Time) specBuilder {
	return func(p scenario.Protocol) (scenario.Spec, error) {
		return scenario.New(
			scenario.WithLinkModel(model),
			scenario.WithQueue(p.QueueKind(), 1000),
			scenario.WithDuration(duration.Seconds()),
			scenario.WithFlows(n, p.Name, 50,
				scenario.ByBytesWorkload(scenario.ExponentialDist(100e3), scenario.ExponentialDist(0.5))),
		), nil
	}
}

func cellularExperiment(id, title, model string, n int, cfg RunConfig) (Report, error) {
	trees, err := loadGeneralPurposeRemyCCs(cfg)
	if err != nil {
		return Report{}, err
	}
	protocols := append(remyProtocols(trees), scenario.BaselineProtocols()...)
	reg, err := registryWith(protocols...)
	if err != nil {
		return Report{}, err
	}
	build := cellularSpec(model, n, cfg.Duration)
	schemes, err := runSchemes(protocols, build, reg, cfg)
	if err != nil {
		return Report{}, err
	}
	rep := Report{
		ID:      id,
		Title:   title,
		Schemes: schemes,
		Lines:   throughputDelayLines(schemes),
	}
	rep.Notes = append(rep.Notes,
		"cellular link is a synthetic LTE-like trace (see DESIGN.md substitutions); the paper replays captured Verizon/AT&T traces",
		fmt.Sprintf("%d runs of %v per scheme", cfg.Runs, cfg.Duration))
	return rep, nil
}

// Figure7 reproduces the Verizon LTE downlink experiment with n = 4 senders.
func Figure7(cfg RunConfig) (Report, error) {
	return cellularExperiment("fig7", "Verizon-like LTE downlink, n=4 (paper Figure 7)", "verizon", 4, cfg)
}

// Figure8 reproduces the Verizon LTE downlink experiment with n = 8 senders.
func Figure8(cfg RunConfig) (Report, error) {
	return cellularExperiment("fig8", "Verizon-like LTE downlink, n=8 (paper Figure 8)", "verizon", 8, cfg)
}

// Figure9 reproduces the AT&T LTE downlink experiment with n = 4 senders.
func Figure9(cfg RunConfig) (Report, error) {
	return cellularExperiment("fig9", "AT&T-like LTE downlink, n=4 (paper Figure 9)", "att", 4, cfg)
}

// Table2 reproduces the second §1 summary table: RemyCC (δ=1) speedups over
// the existing protocols on the Verizon LTE downlink with four senders.
func Table2(cfg RunConfig) (Report, error) {
	rep, err := Figure7(cfg)
	if err != nil {
		return Report{}, err
	}
	out := Report{
		ID:      "table2",
		Title:   "Verizon-like LTE downlink, n=4: RemyCC speedups over existing protocols (paper §1, second table)",
		Schemes: rep.Schemes,
		Notes:   rep.Notes,
		Lines:   speedupLines("remy-d1", rep.Schemes),
	}
	return out, nil
}
