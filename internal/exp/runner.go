package exp

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/campaign"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
)

// RunConfig controls the fidelity of an experiment run: how many independent
// simulations per scheme, how long each lasts, and where RemyCC assets live.
// The paper uses at least 128 runs of 100 seconds each; the defaults here
// are smaller so the full suite regenerates in minutes, and cmd/experiments
// exposes flags to restore the paper's budget.
type RunConfig struct {
	// Runs is the number of independent simulation runs per scheme.
	Runs int
	// Duration is the simulated length of each run.
	Duration sim.Time
	// Seed makes the whole experiment reproducible. Every scheme of an
	// artifact runs at this seed, so the schemes see common random draws. It
	// must be non-zero.
	Seed int64
	// Workers is how many simulations run at once; <= 0 means
	// runtime.GOMAXPROCS(0). Every artifact runs its specs or grid cells as
	// one campaign whose repetitions share that many workers, so uneven
	// schemes still fill the cores. No number depends on it.
	Workers int
	// AssetsDir is where pre-trained RemyCC rule tables live.
	AssetsDir string
	// TrainBudget in (0, 1] scales the fallback training budget used when an
	// asset is missing.
	TrainBudget float64
	// Logf, if non-nil, receives progress messages.
	Logf func(format string, args ...any)
}

// DefaultRunConfig returns a medium-fidelity configuration: 16 runs of 30
// simulated seconds per scheme.
func DefaultRunConfig() RunConfig {
	return RunConfig{
		Runs:        16,
		Duration:    30 * sim.Second,
		Seed:        1,
		AssetsDir:   FindAssetsDir(),
		TrainBudget: 0.05,
	}
}

// QuickRunConfig returns a low-fidelity configuration used by tests and
// benchmarks: 2 runs of 8 simulated seconds.
func QuickRunConfig() RunConfig {
	c := DefaultRunConfig()
	c.Runs = 2
	c.Duration = 8 * sim.Second
	c.TrainBudget = 0.02
	return c
}

// PaperRunConfig returns the paper's evaluation budget: 128 runs of 100
// simulated seconds per scheme (§5.1). Expect long wall-clock times.
func PaperRunConfig() RunConfig {
	c := DefaultRunConfig()
	c.Runs = 128
	c.Duration = 100 * sim.Second
	c.TrainBudget = 1
	return c
}

// SchemeResult aggregates one scheme's outcome over all runs of one
// experiment.
type SchemeResult struct {
	// Protocol is the scheme's display name.
	Protocol string
	// Points holds one (queueing delay, throughput) observation per flow per
	// run — the cloud from which the paper draws its ellipses.
	Points []stats.Point
	// Median is the per-axis median of Points (the circle in Figures 4–9).
	Median stats.Point
	// Ellipse is the 1-σ covariance ellipse of Points.
	Ellipse stats.Ellipse
	// ThroughputsMbps and DelaysMs are the per-flow-per-run samples.
	ThroughputsMbps []float64
	DelaysMs        []float64
	// MeanRTTsMs holds the mean RTT (not just queueing delay) per flow per
	// run, used by the datacenter table.
	MeanRTTsMs []float64
	// LossEvents totals detected losses across runs.
	LossEvents int64
}

// Summarize recomputes the derived fields from Points.
func (s *SchemeResult) summarize(sigma float64) {
	s.Median = stats.MedianPoint(s.Points)
	s.Ellipse = stats.FitEllipse(s.Points, sigma)
}

// MedianThroughput returns the median per-flow throughput in Mbps.
func (s SchemeResult) MedianThroughput() float64 { return stats.Median(s.ThroughputsMbps) }

// MedianDelay returns the median per-flow queueing delay in milliseconds.
func (s SchemeResult) MedianDelay() float64 { return stats.Median(s.DelaysMs) }

// accumulate folds one repetition's per-flow results into the scheme result.
// The unresponsive cbr source is scenery, not a contestant: it does not belong
// in a scheme's throughput-delay cloud.
func (s *SchemeResult) accumulate(res scenario.Result) {
	for _, f := range res.Res.Flows {
		if f.Metrics.OnDuration <= 0 || f.Algorithm == "cbr" {
			continue
		}
		point := stats.Point{
			DelayMs:        f.Metrics.QueueingDelayMs(),
			ThroughputMbps: f.Metrics.Mbps(),
		}
		s.Points = append(s.Points, point)
		s.ThroughputsMbps = append(s.ThroughputsMbps, point.ThroughputMbps)
		s.DelaysMs = append(s.DelaysMs, point.DelayMs)
		s.MeanRTTsMs = append(s.MeanRTTsMs, f.Metrics.AvgRTT*1e3)
		s.LossEvents += f.Transport.LossEvents
	}
}

// schemeResult pools every repetition's flows into one scheme result.
func schemeResult(protocol string, results []scenario.Result) SchemeResult {
	sr := SchemeResult{Protocol: protocol}
	for _, res := range results {
		sr.accumulate(res)
	}
	sr.summarize(1)
	return sr
}

// runCampaign executes an artifact's sweep on the campaign executor, the one
// path every artifact's simulations take, and hands each cell's repetition
// results to onCell (serialized, in completion order). Explicit specs run at
// cfg.Seed, so every scheme of an artifact sees the same random draws; the
// seeds are set on a copy, not on the caller's specs. Grid cells keep the
// seeds they derive from the campaign seed and their IDs. A quarantined cell
// fails the artifact.
func runCampaign(sweep campaign.SweepSpec, reg *scenario.Registry, cfg RunConfig, onCell func(campaign.Cell, []scenario.Result)) ([]campaign.CellRecord, error) {
	if cfg.Seed == 0 {
		return nil, errors.New("exp: RunConfig.Seed must be non-zero")
	}
	sweep.Specs = slices.Clone(sweep.Specs)
	for i := range sweep.Specs {
		sweep.Specs[i].Seed = cfg.Seed
	}
	exec := campaign.Executor{Registry: reg, Workers: cfg.Workers, Logf: cfg.Logf, OnCell: onCell}
	records, err := exec.Run(sweep, campaign.RunOptions{})
	if err != nil {
		return nil, fmt.Errorf("exp: %s campaign: %w", sweep.Name, err)
	}
	for _, rec := range records {
		if rec.Failure != "" {
			return nil, fmt.Errorf("exp: %s campaign: cell %q failed: %s", sweep.Name, rec.ID, rec.Failure)
		}
	}
	return records, nil
}

// runSpecs runs each spec as one campaign cell of cfg.Runs repetitions and
// returns, in spec order, each cell's flows pooled into a scheme result
// named after its spec.
func runSpecs(id string, specs []scenario.Spec, reg *scenario.Registry, cfg RunConfig) ([]SchemeResult, error) {
	out := make([]SchemeResult, len(specs))
	sweep := campaign.SweepSpec{Name: id, Specs: specs, Repetitions: cfg.Runs}
	_, err := runCampaign(sweep, reg, cfg, func(c campaign.Cell, results []scenario.Result) {
		out[c.Index] = schemeResult(specs[c.Index].Name, results)
	})
	return out, err
}

// schemeSpecs builds one spec per protocol, each named after its protocol.
func schemeSpecs(protocols []scenario.Protocol, build func(p scenario.Protocol) scenario.Spec) []scenario.Spec {
	specs := make([]scenario.Spec, len(protocols))
	for i, p := range protocols {
		specs[i] = build(p)
		specs[i].Name = p.Name
	}
	return specs
}

// Report is the output of one experiment: formatted text plus the structured
// per-scheme results.
type Report struct {
	ID      string
	Title   string
	Lines   []string
	Schemes []SchemeResult
	// Notes records scaling caveats (shortened durations, synthetic traces).
	Notes []string
}

// String renders the report as text.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	for _, l := range r.Lines {
		b.WriteString(l)
		b.WriteString("\n")
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Scheme returns the named scheme's result and whether it was found.
func (r Report) Scheme(name string) (SchemeResult, bool) {
	for _, s := range r.Schemes {
		if s.Protocol == name {
			return s, true
		}
	}
	return SchemeResult{}, false
}

// throughputDelayLines formats the per-scheme medians and ellipses the way
// Figures 4–9 present them.
func throughputDelayLines(schemes []SchemeResult) []string {
	lines := []string{fmt.Sprintf("%-16s %14s %18s %12s %12s",
		"scheme", "median tput", "median queue delay", "tput sd", "delay sd")}
	for _, s := range schemes {
		lines = append(lines, fmt.Sprintf("%-16s %11.3f Mbps %15.2f ms %12.3f %12.2f",
			s.Protocol, s.MedianThroughput(), s.MedianDelay(),
			stats.StdDev(s.ThroughputsMbps), stats.StdDev(s.DelaysMs)))
	}
	return lines
}

// speedupLines formats the §1 summary tables: the reference scheme's median
// throughput and delay relative to every other scheme.
func speedupLines(reference string, schemes []SchemeResult) []string {
	var ref *SchemeResult
	for i := range schemes {
		if schemes[i].Protocol == reference {
			ref = &schemes[i]
			break
		}
	}
	if ref == nil {
		return []string{fmt.Sprintf("reference scheme %q missing", reference)}
	}
	lines := []string{fmt.Sprintf("%-16s %16s %22s", "protocol", "median speedup", "median delay reduction")}
	names := make([]string, 0, len(schemes))
	for _, s := range schemes {
		if s.Protocol != reference {
			names = append(names, s.Protocol)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		var other *SchemeResult
		for i := range schemes {
			if schemes[i].Protocol == name {
				other = &schemes[i]
			}
		}
		speedup := ratioOrNaN(ref.MedianThroughput(), other.MedianThroughput())
		delayReduction := ratioOrNaN(other.MedianDelay(), ref.MedianDelay())
		lines = append(lines, fmt.Sprintf("%-16s %15.2fx %21.2fx", name, speedup, delayReduction))
	}
	return lines
}

func ratioOrNaN(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}
