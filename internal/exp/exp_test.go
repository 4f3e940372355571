package exp

import (
	"math"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// quickCfg returns a very small configuration so the experiment suite stays
// fast under `go test`.
func quickCfg() RunConfig {
	c := QuickRunConfig()
	c.Runs = 2
	c.Duration = 6 * sim.Second
	c.TrainBudget = 0.02
	return c
}

func TestProtocolValidateAndConstructors(t *testing.T) {
	for _, p := range scenario.BaselineProtocols() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		algo := p.New()
		if algo == nil || algo.Name() == "" {
			t.Errorf("%s constructor", p.Name)
		}
	}
	if err := (scenario.Protocol{}).Validate(); err == nil {
		t.Error("empty protocol accepted")
	}
	if err := (scenario.Protocol{Name: "x"}).Validate(); err == nil {
		t.Error("protocol without constructor accepted")
	}
	if scenario.DCTCP().New().Name() != "dctcp" || scenario.XCP().New().Name() != "xcp" {
		t.Error("router-assisted protocol constructors")
	}
}

func TestRunConfigPresets(t *testing.T) {
	d := DefaultRunConfig()
	q := QuickRunConfig()
	p := PaperRunConfig()
	if !(q.Runs < d.Runs && d.Runs < p.Runs) {
		t.Error("run-count ordering")
	}
	if p.Runs != 128 || p.Duration != 100*sim.Second {
		t.Error("paper config must match §5.1 (128 runs of 100 s)")
	}
	if d.AssetsDir == "" {
		t.Error("assets dir")
	}
}

func TestFindAssetsDir(t *testing.T) {
	dir := FindAssetsDir()
	if filepath.Base(dir) != "assets" {
		t.Errorf("FindAssetsDir = %q", dir)
	}
	t.Setenv("REPRO_ASSETS_DIR", "/tmp/custom-assets")
	if FindAssetsDir() != "/tmp/custom-assets" {
		t.Error("environment override ignored")
	}
}

func TestTrainSpecs(t *testing.T) {
	for _, spec := range []TrainSpec{
		GeneralPurposeTrainSpec(0.1, 0.05),
		GeneralPurposeTrainSpec(1, 1),
		LinkSpeedTrainSpec(15e6, 15e6, 0.05),
		LinkSpeedTrainSpec(4.7e6, 47e6, 0.05),
		DatacenterTrainSpec(0.05),
		CompetingTrainSpec(0.05),
	} {
		if err := spec.Config.Validate(); err != nil {
			t.Errorf("train spec config invalid: %v", err)
		}
		if spec.Rounds < 1 {
			t.Error("train spec rounds")
		}
	}
	// Budget scaling must shrink the evaluation cost.
	full := GeneralPurposeTrainSpec(1, 1)
	small := GeneralPurposeTrainSpec(1, 0.05)
	if small.Config.SpecimenDuration >= full.Config.SpecimenDuration {
		t.Error("budget did not shrink specimen duration")
	}
	if small.Config.Specimens > full.Config.Specimens {
		t.Error("budget did not shrink specimen count")
	}
}

func TestLoadOrTrainRemyCCLoadsExistingAsset(t *testing.T) {
	// Write a tiny rule table to a temp assets dir and make sure it loads
	// without triggering training.
	dir := t.TempDir()
	spec := GeneralPurposeTrainSpec(1, 0.01)
	if err := core.DefaultWhiskerTree().SaveFile(filepath.Join(dir, "test.json")); err != nil {
		t.Fatal(err)
	}
	tree, err := LoadOrTrainRemyCC(dir, "test.json", spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tree.NumWhiskers() != 1 {
		t.Error("loaded tree shape")
	}
}

func TestRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) != 16 {
		t.Errorf("registry has %d experiments, want 16 (every table and figure, plus beyond-dumbbell, churn and faults)", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Errorf("incomplete experiment %+v", e)
		}
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
	}
	for _, id := range []string{"fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "table1", "table2", "table3", "table4", "beyond", "churn"} {
		if _, err := Lookup(id); err != nil {
			t.Errorf("Lookup(%s): %v", id, err)
		}
	}
	if _, err := Lookup("fig99"); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestFigure3(t *testing.T) {
	rep, err := Figure3(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != "fig3" || len(rep.Lines) < 5 {
		t.Errorf("report = %+v", rep)
	}
	if rep.String() == "" {
		t.Error("String")
	}
}

func TestBeyondDumbbell(t *testing.T) {
	rep, err := BeyondDumbbell(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != "beyond" {
		t.Errorf("report id %q", rep.ID)
	}
	// Three families x three schemes, each with a populated point cloud.
	if len(rep.Schemes) != 9 {
		t.Fatalf("got %d scheme results, want 9", len(rep.Schemes))
	}
	for _, s := range rep.Schemes {
		if len(s.Points) == 0 {
			t.Errorf("%s produced no observations", s.Protocol)
		}
		if s.MedianThroughput() <= 0 {
			t.Errorf("%s median throughput = %v", s.Protocol, s.MedianThroughput())
		}
	}
	// The cbr cross-traffic source must not appear as a contestant.
	for _, s := range rep.Schemes {
		if strings.Contains(s.Protocol, "cbr") {
			t.Errorf("cbr leaked into scheme results: %s", s.Protocol)
		}
	}
	// Parking-lot sanity: no single flow can exceed the widest bottleneck it
	// could possibly traverse (10 Mbps); the strict per-bottleneck
	// conservation property (sum of flows crossing each hop ≤ its rate) is
	// asserted by harness.TestParkingLotConservation.
	for _, s := range rep.Schemes {
		if !strings.HasPrefix(s.Protocol, "parkinglot/") {
			continue
		}
		for _, tput := range s.ThroughputsMbps {
			if tput > 10.0*1.05 {
				t.Errorf("%s: a flow reached %v Mbps, above the widest bottleneck", s.Protocol, tput)
			}
		}
	}
	if rep.String() == "" {
		t.Error("String")
	}
}

func TestFigure4AndTable1(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment skipped in -short mode")
	}
	cfg := quickCfg()
	rep, err := Figure4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantSchemes := []string{"remy-d0.1", "remy-d1", "remy-d10", "newreno", "vegas", "cubic", "compound", "cubic/sfqcodel", "xcp"}
	if len(rep.Schemes) != len(wantSchemes) {
		t.Fatalf("got %d schemes", len(rep.Schemes))
	}
	for _, name := range wantSchemes {
		s, ok := rep.Scheme(name)
		if !ok {
			t.Fatalf("scheme %s missing", name)
		}
		if len(s.Points) == 0 {
			t.Errorf("%s: no observations", name)
		}
		if s.MedianThroughput() <= 0 || s.MedianThroughput() > 15.5 {
			t.Errorf("%s: median throughput %.2f Mbps implausible", name, s.MedianThroughput())
		}
		if s.MedianDelay() < 0 || math.IsNaN(s.MedianDelay()) {
			t.Errorf("%s: median delay %v", name, s.MedianDelay())
		}
	}
	// Robust qualitative check: delay-based Vegas keeps queues smaller than
	// buffer-filling Cubic on this topology.
	vegas, _ := rep.Scheme("vegas")
	cubic, _ := rep.Scheme("cubic")
	if vegas.MedianDelay() >= cubic.MedianDelay() {
		t.Errorf("vegas delay %.1f ms should be below cubic delay %.1f ms", vegas.MedianDelay(), cubic.MedianDelay())
	}

	table, err := Table1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if table.ID != "table1" || len(table.Lines) < 7 {
		t.Errorf("table1 = %+v", table.Lines)
	}
	joined := strings.Join(table.Lines, "\n")
	for _, name := range []string{"cubic", "vegas", "compound", "newreno", "xcp"} {
		if !strings.Contains(joined, name) {
			t.Errorf("table1 missing row for %s", name)
		}
	}
}

func TestFigure6SequencePlot(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment skipped in -short mode")
	}
	cfg := quickCfg()
	rep, series, err := Figure6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) == 0 {
		t.Fatal("no sequence samples")
	}
	// Cumulative packet counts must be non-decreasing in time.
	for i := 1; i < len(series); i++ {
		if series[i].CumulativePackets < series[i-1].CumulativePackets ||
			series[i].TimeSeconds < series[i-1].TimeSeconds {
			t.Fatal("sequence plot not monotonic")
		}
	}
	if len(rep.Lines) < 3 {
		t.Error("report lines")
	}
}

func TestFigure7Cellular(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment skipped in -short mode")
	}
	cfg := quickCfg()
	rep, err := Figure7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Schemes) != 9 {
		t.Fatalf("got %d schemes", len(rep.Schemes))
	}
	for _, s := range rep.Schemes {
		if len(s.Points) == 0 {
			t.Errorf("%s: no observations", s.Protocol)
		}
		// No flow can beat the whole link's physical capacity.
		if s.MedianThroughput() > 55 {
			t.Errorf("%s: throughput %.1f Mbps exceeds the trace's ceiling", s.Protocol, s.MedianThroughput())
		}
	}
	if len(rep.Notes) == 0 {
		t.Error("cellular experiments must note the synthetic-trace substitution")
	}
}

func TestFigure10RTTFairness(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment skipped in -short mode")
	}
	cfg := quickCfg()
	rep, err := Figure10(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Schemes) != 4 {
		t.Fatalf("got %d schemes", len(rep.Schemes))
	}
	if len(rep.Lines) < 5 {
		t.Error("missing share rows")
	}
}

func TestTable3Datacenter(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment skipped in -short mode")
	}
	cfg := quickCfg()
	rep, err := Table3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Schemes) != 2 {
		t.Fatalf("got %d schemes", len(rep.Schemes))
	}
	for _, s := range rep.Schemes {
		if stats := s.ThroughputsMbps; len(stats) == 0 {
			t.Errorf("%s: no samples", s.Protocol)
		}
		if s.MedianThroughput() <= 0 {
			t.Errorf("%s: zero throughput", s.Protocol)
		}
	}
	if len(rep.Notes) == 0 {
		t.Error("datacenter experiment must note its scaling")
	}
}

func TestTable4Competing(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment skipped in -short mode")
	}
	cfg := quickCfg()
	rep, err := Table4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(rep.Lines, "\n")
	if !strings.Contains(joined, "Compound") || !strings.Contains(joined, "Cubic") {
		t.Errorf("table4 missing sections: %s", joined)
	}
	if len(rep.Lines) < 9 {
		t.Errorf("table4 has %d lines", len(rep.Lines))
	}
}

func TestFigure11DesignRange(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment skipped in -short mode")
	}
	cfg := quickCfg()
	rep, err := Figure11(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Lines) < 6 {
		t.Errorf("figure 11 lines: %v", rep.Lines)
	}
	joined := strings.Join(rep.Lines, "\n")
	for _, want := range []string{"4.7", "15.0", "47.0"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing link speed row %s", want)
		}
	}
}

func TestFlowChurnExperiment(t *testing.T) {
	rep, err := FlowChurn(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != "churn" {
		t.Errorf("report id %q", rep.ID)
	}
	// Three loads x four schemes.
	if len(rep.Schemes) != 12 {
		t.Fatalf("got %d scheme results, want 12", len(rep.Schemes))
	}
	// Each load section renders a header plus one line per scheme.
	var schemeLines int
	for _, l := range rep.Lines {
		for _, scheme := range []string{"remy-1x", "cubic", "newreno", "vegas"} {
			if strings.HasPrefix(l, scheme+" ") {
				schemeLines++
				break
			}
		}
	}
	if schemeLines != 12 {
		t.Errorf("report renders %d scheme lines, want 12:\n%s", schemeLines, rep.String())
	}
	// Churn must actually have happened: the rendered report cannot claim
	// zero completions everywhere (guarded loosely via the structured
	// results' loss-free point clouds being populated for the static flow).
	for _, s := range rep.Schemes {
		if len(s.Points) == 0 {
			t.Errorf("%s produced no static-flow observations", s.Protocol)
		}
	}
}

func TestFaultsExperiment(t *testing.T) {
	cfg := quickCfg()
	cfg.Runs = 1
	rep, err := Faults(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != "faults" {
		t.Errorf("report id %q", rep.ID)
	}
	// Three outages x three burst-loss levels, one header pair + four scheme
	// lines per block.
	var blocks, schemeLines int
	for _, l := range rep.Lines {
		if strings.HasPrefix(l, "-- outage") {
			blocks++
		}
		for _, scheme := range []string{"remy-1x", "cubic", "newreno", "vegas"} {
			if strings.HasPrefix(l, scheme+" ") {
				schemeLines++
				break
			}
		}
	}
	if blocks != 9 {
		t.Errorf("report renders %d fault blocks, want 9:\n%s", blocks, rep.String())
	}
	if schemeLines != 36 {
		t.Errorf("report renders %d scheme lines, want 36:\n%s", schemeLines, rep.String())
	}
	// The faults must actually bite: burst-loss cells record fault drops
	// (the last column), the fault-free control records none.
	var sawDrops bool
	for _, l := range rep.Lines {
		fields := strings.Fields(l)
		if len(fields) == 6 && fields[0] != "scheme" && fields[5] != "0" && !strings.HasPrefix(l, "--") {
			sawDrops = true
		}
	}
	if !sawDrops {
		t.Error("no cell recorded fault drops; the loss process never fired")
	}
}

// TestRunCampaignFailures: a cell the executor quarantines fails the
// artifact with an error naming the cell, and a zero seed, which would hand
// explicit specs derived per-cell seeds, is rejected before anything runs.
func TestRunCampaignFailures(t *testing.T) {
	w := scenario.ByTimeWorkload(scenario.ConstantDist(10), scenario.ConstantDist(1))
	w.StartOn = true
	spec := func(name, scheme string) scenario.Spec {
		return scenario.New(
			scenario.WithName(name),
			scenario.WithLink(5e6),
			scenario.WithDuration(0.3),
			scenario.WithFlow(scenario.FlowSpec{Scheme: scheme, RTTMs: 50, Workload: w}),
		)
	}
	sweep := campaign.SweepSpec{Name: "chaos", Specs: []scenario.Spec{spec("good", "newreno"), spec("boom", "chaos/panic")}}
	_, err := runCampaign(sweep, scenario.Default(), quickCfg(), nil)
	if err == nil || !strings.Contains(err.Error(), `cell "spec[1]=boom" failed`) || !strings.Contains(err.Error(), scenario.ChaosPanicMessage) {
		t.Fatalf("runCampaign over a panicking cell returned %v, want an error naming spec[1]=boom and its panic", err)
	}

	cfg := quickCfg()
	cfg.Seed = 0
	ran := false
	sweep = campaign.SweepSpec{Name: "zero-seed", Specs: []scenario.Spec{spec("good", "newreno")}}
	_, err = runCampaign(sweep, scenario.Default(), cfg, func(campaign.Cell, []scenario.Result) { ran = true })
	if err == nil || !strings.Contains(err.Error(), "Seed must be non-zero") || ran {
		t.Fatalf("runCampaign at seed 0 returned %v (ran cells: %v), want a rejection before any cell runs", err, ran)
	}
	if _, err := Table4(cfg); err == nil {
		t.Fatal("Table4 accepted RunConfig.Seed 0")
	}
}

// TestRunCampaignWorkers: an explicit spec's repetitions share 1, 2, 4 or 7
// workers without moving a number, and runCampaign leaves the caller's specs
// (and their seeds) as they were.
func TestRunCampaignWorkers(t *testing.T) {
	w := scenario.ByTimeWorkload(scenario.ConstantDist(10), scenario.ConstantDist(1))
	w.StartOn = true
	specs := []scenario.Spec{scenario.New(
		scenario.WithName("newreno"),
		scenario.WithLink(5e6),
		scenario.WithDuration(0.5),
		scenario.WithFlow(scenario.FlowSpec{Scheme: "newreno", RTTMs: 50, Workload: w}),
	)}
	specs[0].Seed = 7
	cfg := quickCfg()
	cfg.Runs = 4
	run := func(workers int) SchemeResult {
		cfg.Workers = workers
		out, err := runSpecs("workers", specs, scenario.Default(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return out[0]
	}
	serial := run(1)
	if len(serial.Points) != 4 {
		t.Fatalf("workers 1 gave %d points, want 4", len(serial.Points))
	}
	for _, workers := range []int{2, 4, 7} {
		if wide := run(workers); !slices.Equal(serial.Points, wide.Points) || serial.LossEvents != wide.LossEvents {
			t.Fatalf("workers 1 gave %v (%d losses), workers %d gave %v (%d losses); want equal points", serial.Points, serial.LossEvents, workers, wide.Points, wide.LossEvents)
		}
	}
	if specs[0].Seed != 7 {
		t.Fatalf("runCampaign rewrote the caller's spec seed to %d", specs[0].Seed)
	}
}
