package optimizer

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// tinyConfig is a deliberately small design range so tests finish quickly:
// short specimens, few senders, moderate rates.
func tinyConfig() ConfigRange {
	return ConfigRange{
		MinSenders:           2,
		MaxSenders:           2,
		LinkRateBps:          Range{10e6, 10e6},
		RTTMs:                Range{100, 100},
		OnMode:               workload.ByTime,
		MeanOnSeconds:        5,
		MeanOffSecs:          1,
		QueueCapacityPackets: 1000,
		SpecimenDuration:     4 * sim.Second,
		Specimens:            2,
	}
}

func TestRangeAndConfigValidation(t *testing.T) {
	if (Range{1, 2}).Validate() != nil {
		t.Error("valid range rejected")
	}
	if (Range{0, 2}).Validate() == nil || (Range{3, 2}).Validate() == nil {
		t.Error("invalid ranges accepted")
	}
	if (Range{1, 2}).String() == "" {
		t.Error("Range.String")
	}
	g := sim.NewRNG(1)
	for i := 0; i < 100; i++ {
		v := (Range{5, 7}).Sample(g)
		if v < 5 || v >= 7 {
			t.Fatalf("range sample %v out of bounds", v)
		}
	}
	if (Range{5, 5}).Sample(g) != 5 {
		t.Error("degenerate range sample")
	}

	if err := DumbbellDesignRange().Validate(); err != nil {
		t.Errorf("dumbbell design range invalid: %v", err)
	}
	if err := DatacenterDesignRange().Validate(); err != nil {
		t.Errorf("datacenter design range invalid: %v", err)
	}
	if err := LinkSpeedDesignRange(4.7e6, 47e6).Validate(); err != nil {
		t.Errorf("link-speed design range invalid: %v", err)
	}
	bad := DumbbellDesignRange()
	bad.MinSenders = 0
	if bad.Validate() == nil {
		t.Error("zero MinSenders accepted")
	}
	bad = DumbbellDesignRange()
	bad.MaxSenders = 0
	if bad.Validate() == nil {
		t.Error("MaxSenders < MinSenders accepted")
	}
	bad = DumbbellDesignRange()
	bad.MeanOnSeconds = 0
	if bad.Validate() == nil {
		t.Error("zero MeanOnSeconds accepted")
	}
	bad = DatacenterDesignRange()
	bad.MeanOnBytes = 0
	if bad.Validate() == nil {
		t.Error("zero MeanOnBytes accepted")
	}
	bad = DumbbellDesignRange()
	bad.MeanOffSecs = 0
	if bad.Validate() == nil {
		t.Error("zero MeanOffSecs accepted")
	}
	bad = DumbbellDesignRange()
	bad.SpecimenDuration = 0
	if bad.Validate() == nil {
		t.Error("zero duration accepted")
	}
	bad = DumbbellDesignRange()
	bad.Specimens = 0
	if bad.Validate() == nil {
		t.Error("zero specimens accepted")
	}
	bad = DumbbellDesignRange()
	bad.OnMode = workload.OnMode(9)
	if bad.Validate() == nil {
		t.Error("unknown on mode accepted")
	}
}

func TestConfigRangeSampling(t *testing.T) {
	cfg := DumbbellDesignRange()
	g := sim.NewRNG(2)
	specs := cfg.SampleSet(50, g)
	if len(specs) != 50 {
		t.Fatal("SampleSet size")
	}
	for _, s := range specs {
		if s.Senders < 1 || s.Senders > 16 {
			t.Errorf("senders %d out of range", s.Senders)
		}
		if s.LinkRateBps < 10e6 || s.LinkRateBps >= 20e6 {
			t.Errorf("rate %v out of range", s.LinkRateBps)
		}
		if s.RTTMs < 100 || s.RTTMs >= 200 {
			t.Errorf("rtt %v out of range", s.RTTMs)
		}
		if s.String() == "" {
			t.Error("Specimen.String")
		}
	}
	// Workload spec conversion to the declarative scenario form.
	spec := cfg.scenarioWorkload()
	if spec.Mode != scenario.ModeByTime || spec.On.Mean != 5 || spec.Off.Mean != 5 {
		t.Errorf("scenarioWorkload = %v", spec)
	}
	dc := DatacenterDesignRange().scenarioWorkload()
	if dc.Mode != scenario.ModeByBytes || dc.On.Mean != 20e6 {
		t.Errorf("datacenter scenarioWorkload = %v", dc)
	}
}

func TestEvaluatorScoresPacedAboveDefault(t *testing.T) {
	// On a 10 Mbps link with 2 senders, the default (unpaced, always-grow)
	// rule floods the buffer; a 2 ms-paced rule shares the link cleanly.
	// The evaluator must prefer the paced table.
	cfg := tinyConfig()
	eval := NewEvaluator(stats.DefaultObjective(1))
	eval.Workers = 2
	specs := cfg.SampleSet(cfg.Specimens, sim.NewRNG(3))

	defaultTree := core.DefaultWhiskerTree()
	pacedTree := core.NewWhiskerTree(core.Action{WindowMultiple: 1, WindowIncrement: 1, IntersendMs: 3})

	scores, err := eval.ScoreMany([]*core.WhiskerTree{defaultTree, pacedTree}, specs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 2 {
		t.Fatal("score count")
	}
	if !(scores[1] > scores[0]) {
		t.Errorf("paced tree score %.3f should beat default tree score %.3f", scores[1], scores[0])
	}
}

func TestEvaluatorUsageAndMedian(t *testing.T) {
	cfg := tinyConfig()
	eval := NewEvaluator(stats.DefaultObjective(1))
	eval.Workers = 2
	specs := cfg.SampleSet(cfg.Specimens, sim.NewRNG(4))
	tree := core.DefaultWhiskerTree()

	evaluation, err := eval.Evaluate(tree, specs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if evaluation.FlowsScored == 0 {
		t.Fatal("no flows scored")
	}
	if len(evaluation.UseCounts) != 1 {
		t.Fatal("use counts size")
	}
	if evaluation.UseCounts[0] == 0 {
		t.Error("the only rule was never used")
	}
	if evaluation.MostUsedAny() != 0 {
		t.Error("MostUsedAny")
	}
	if evaluation.MostUsed(tree, 0) != 0 {
		t.Error("MostUsed at epoch 0")
	}
	if evaluation.MostUsed(tree, 7) != -1 {
		t.Error("MostUsed at a wrong epoch should be -1")
	}
	median, ok := evaluation.MedianMemory(0)
	if !ok {
		t.Fatal("no memory samples recorded")
	}
	if median.RTTRatio < 1 || median.RTTRatio > core.MaxMemoryValue {
		t.Errorf("median rtt_ratio = %v", median.RTTRatio)
	}
	if _, ok := evaluation.MedianMemory(5); ok {
		t.Error("MedianMemory out of range should report false")
	}
	if _, ok := evaluation.MedianMemory(-1); ok {
		t.Error("MedianMemory(-1) should report false")
	}
	if math.IsInf(evaluation.Score, 0) || math.IsNaN(evaluation.Score) {
		t.Errorf("score = %v", evaluation.Score)
	}
}

func TestEvaluatorDeterministicScores(t *testing.T) {
	cfg := tinyConfig()
	eval := NewEvaluator(stats.DefaultObjective(1))
	eval.Workers = 3
	specs := cfg.SampleSet(cfg.Specimens, sim.NewRNG(5))
	tree := core.NewWhiskerTree(core.Action{WindowMultiple: 1, WindowIncrement: 2, IntersendMs: 1})
	a, err := eval.Evaluate(tree, specs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := eval.Evaluate(tree, specs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Score != b.Score || a.FlowsScored != b.FlowsScored {
		t.Errorf("evaluation not deterministic: %.6f vs %.6f", a.Score, b.Score)
	}
}

func TestEvaluatorErrors(t *testing.T) {
	eval := NewEvaluator(stats.DefaultObjective(1))
	tree := core.DefaultWhiskerTree()
	if _, err := eval.Evaluate(tree, nil, tinyConfig()); err == nil {
		t.Error("empty specimen set accepted")
	}
	if _, err := eval.ScoreMany([]*core.WhiskerTree{tree}, nil, tinyConfig()); err == nil {
		t.Error("empty specimen set accepted by ScoreMany")
	}
	if out, err := eval.ScoreMany(nil, nil, tinyConfig()); err != nil || out != nil {
		t.Error("empty tree list should be a no-op")
	}
}

func TestUsageCollectorBounds(t *testing.T) {
	u := new(usageCollector)
	u.reset(make([]int64, 2), make([]bool, 2), true)
	u.RecordUse(-1, core.Memory{})
	u.RecordUse(5, core.Memory{})
	if u.counts[0] != 0 && u.counts[1] != 0 {
		t.Error("out-of-range indices must be ignored")
	}
	for i := 0; i < maxMemorySamplesPerWhisker+10; i++ {
		u.RecordUse(0, core.Memory{AckEWMA: float64(i)})
	}
	if len(u.samples[0]) != maxMemorySamplesPerWhisker {
		t.Errorf("sample cap not enforced: %d", len(u.samples[0]))
	}
	if u.counts[0] != int64(maxMemorySamplesPerWhisker+10) {
		t.Error("counts must keep accumulating past the sample cap")
	}
}

func TestOptimizeImprovesScoreAndGrowsTable(t *testing.T) {
	if testing.Short() {
		t.Skip("optimization is too slow for -short")
	}
	cfg := tinyConfig()
	r := New(cfg, stats.DefaultObjective(1))
	r.Workers = 4
	r.Seed = 7
	r.ImprovementIters = 2
	r.CandidateRungs = 1
	r.EpochsPerSplit = 1 // split every round so the table visibly grows

	eval := NewEvaluator(stats.DefaultObjective(1))
	eval.Workers = 4
	specs := cfg.SampleSet(4, sim.NewRNG(99))
	before, err := eval.Evaluate(core.DefaultWhiskerTree(), specs, cfg)
	if err != nil {
		t.Fatal(err)
	}

	tree, progress, err := r.Optimize(nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(progress) != 2 {
		t.Fatalf("progress entries: %d", len(progress))
	}
	for _, p := range progress {
		if p.String() == "" {
			t.Error("Progress.String")
		}
	}
	if tree.NumWhiskers() < 2 {
		t.Errorf("table did not grow: %d rules", tree.NumWhiskers())
	}

	after, err := eval.Evaluate(tree, specs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !(after.Score > before.Score) {
		t.Errorf("optimization did not improve the objective: before %.4f, after %.4f", before.Score, after.Score)
	}
}

func TestOptimizeValidation(t *testing.T) {
	r := New(tinyConfig(), stats.DefaultObjective(1))
	if _, _, err := r.Optimize(nil, 0); err == nil {
		t.Error("zero rounds accepted")
	}
	bad := New(ConfigRange{}, stats.DefaultObjective(1))
	if _, _, err := bad.Optimize(nil, 1); err == nil {
		t.Error("invalid config accepted")
	}
}
