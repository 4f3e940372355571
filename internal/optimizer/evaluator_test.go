package optimizer

import (
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
)

// multiRuleTree grows a small usage-driven table for evaluator tests.
func multiRuleTree(t *testing.T, cfg ConfigRange, specimens []Specimen, splits int) *core.WhiskerTree {
	t.Helper()
	tree := core.DefaultWhiskerTree()
	eval := NewEvaluator(stats.DefaultObjective(1))
	eval.Workers = 2
	for i := 0; i < splits; i++ {
		evaluation, err := eval.Evaluate(tree, specimens, cfg)
		if err != nil {
			t.Fatal(err)
		}
		idx := evaluation.MostUsedAny()
		if idx < 0 {
			t.Fatal("no whisker used")
		}
		median, ok := evaluation.MedianMemory(idx)
		if !ok {
			w, _ := tree.Whisker(idx)
			median = w.Domain.Midpoint()
		}
		if err := tree.Split(idx, median); err != nil {
			t.Fatal(err)
		}
	}
	return tree
}

// TestScoreCandidatesMatchesUncached is the exactness guard for usage
// pruning and memoization at the API level: for every whisker of a
// multi-rule table, ScoreCandidates (cache + pruning) must return exactly
// the scores the uncached full-batch path computes.
func TestScoreCandidatesMatchesUncached(t *testing.T) {
	cfg := tinyConfig()
	specs := cfg.SampleSet(4, sim.NewRNG(21))
	tree := multiRuleTree(t, cfg, specs, 1)

	fast := NewEvaluator(stats.DefaultObjective(1))
	fast.Workers = 3
	slow := NewEvaluator(stats.DefaultObjective(1))
	slow.Workers = 3
	slow.NoCache = true

	incumbent, err := fast.EvaluateUsage(tree, specs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for idx := 0; idx < tree.NumWhiskers(); idx++ {
		w, _ := tree.Whisker(idx)
		candidates := w.Action.Neighbors(1)
		trees := make([]*core.WhiskerTree, len(candidates))
		for i, cand := range candidates {
			tr, err := tree.WithAction(idx, cand)
			if err != nil {
				t.Fatal(err)
			}
			trees[i] = tr
		}
		got, err := fast.ScoreCandidates(incumbent, trees, idx, specs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := slow.ScoreMany(trees, specs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("whisker %d candidate %d: pruned score %v != uncached score %v", idx, i, got[i], want[i])
			}
		}
	}
	if st := fast.Stats(); st.SimulatedRuns == 0 {
		t.Error("no simulations recorded")
	}
}

// TestEvaluateUsageMatchesEvaluate checks the sample-free evaluation agrees
// with the full one on everything except the samples it skips.
func TestEvaluateUsageMatchesEvaluate(t *testing.T) {
	cfg := tinyConfig()
	specs := cfg.SampleSet(cfg.Specimens, sim.NewRNG(22))
	tree := core.DefaultWhiskerTree()

	full := NewEvaluator(stats.DefaultObjective(1))
	full.Workers = 2
	a, err := full.Evaluate(tree, specs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	usage := NewEvaluator(stats.DefaultObjective(1))
	usage.Workers = 2
	b, err := usage.EvaluateUsage(tree, specs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Score != b.Score || a.FlowsScored != b.FlowsScored {
		t.Errorf("scores differ: %v vs %v", a.Score, b.Score)
	}
	for i := range a.UseCounts {
		if a.UseCounts[i] != b.UseCounts[i] {
			t.Errorf("use counts differ at %d", i)
		}
	}
	if len(a.MemorySamples[0]) == 0 {
		t.Error("Evaluate must collect samples")
	}
	if len(b.MemorySamples[0]) != 0 {
		t.Error("EvaluateUsage must not collect samples")
	}
}

// TestEvaluatorCacheStats checks the memo cache serves repeated evaluations
// and counts its work honestly.
func TestEvaluatorCacheStats(t *testing.T) {
	cfg := tinyConfig()
	specs := cfg.SampleSet(cfg.Specimens, sim.NewRNG(23))
	tree := core.DefaultWhiskerTree()
	eval := NewEvaluator(stats.DefaultObjective(1))
	eval.Workers = 2

	a, err := eval.EvaluateUsage(tree, specs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := eval.Stats()
	if st.SimulatedRuns != int64(len(specs)) || st.CacheHits != 0 {
		t.Fatalf("after first evaluation: %+v", st)
	}
	b, err := eval.EvaluateUsage(tree, specs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st = eval.Stats()
	if st.SimulatedRuns != int64(len(specs)) || st.CacheHits != int64(len(specs)) {
		t.Fatalf("after second evaluation: %+v", st)
	}
	if a.Score != b.Score {
		t.Error("cached evaluation changed the score")
	}
	if st.String() == "" || st.CacheHitRate() <= 0 {
		t.Error("stats accessors")
	}
	// An epoch-only change must still hit the cache (epochs are invisible
	// to the simulation).
	tree.SetAllEpochs(3)
	if _, err := eval.EvaluateUsage(tree, specs, cfg); err != nil {
		t.Fatal(err)
	}
	if st = eval.Stats(); st.SimulatedRuns != int64(len(specs)) {
		t.Fatalf("epoch change caused re-simulation: %+v", st)
	}
	// NoCache disables all of it.
	off := NewEvaluator(stats.DefaultObjective(1))
	off.Workers = 2
	off.NoCache = true
	off.EvaluateUsage(tree, specs, cfg)
	off.EvaluateUsage(tree, specs, cfg)
	if st = off.Stats(); st.CacheHits != 0 || st.SimulatedRuns != 2*int64(len(specs)) {
		t.Fatalf("NoCache stats: %+v", st)
	}
}

// TestEvalKeyInline keeps memo keys in the maps' own slots. Go's maps store
// a key larger than 128 bytes (abi.SwissMapMaxKeyBytes) out of line, in an
// allocation of its own on every insert, so a field that pushed evalKey past
// that would cost an allocation per pending job, memo entry and pruning
// transfer again. This is why the key carries an id for its ConfigRange and
// not the range itself.
func TestEvalKeyInline(t *testing.T) {
	if size := unsafe.Sizeof(evalKey{}); size > 128 {
		t.Fatalf("evalKey is %d bytes; a map stores a key over 128 bytes out of line, one allocation per insert", size)
	}
}

// TestEvaluatorKeepsConfigsApart: memo keys carry the evaluator's id for a
// design range, not the range, so one evaluator used under two ranges must
// never serve one's result for the other. Whichever range comes first, and
// again from the memo, each range scores exactly what a fresh evaluator
// scores under it alone.
func TestEvaluatorKeepsConfigsApart(t *testing.T) {
	obj := stats.DefaultObjective(1)
	long := tinyConfig()
	short := long
	short.SpecimenDuration = long.SpecimenDuration / 2
	specs := long.SampleSet(2, sim.NewRNG(24))
	tree := core.DefaultWhiskerTree()
	evaluate := func(e *Evaluator, cfg ConfigRange) Evaluation {
		t.Helper()
		ev, err := e.EvaluateUsage(tree, specs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return ev
	}
	fresh := func(cfg ConfigRange) Evaluation {
		e := NewEvaluator(obj)
		e.Workers = 2
		return evaluate(e, cfg)
	}
	want := []Evaluation{fresh(long), fresh(short)}
	if want[0].Score == want[1].Score {
		t.Fatal("the two ranges score alike, so a memo that mixed them up would go unnoticed")
	}
	for _, order := range [][]int{{0, 1}, {1, 0}} {
		shared := NewEvaluator(obj)
		shared.Workers = 2
		for pass := 0; pass < 2; pass++ {
			for _, c := range order {
				got := evaluate(shared, []ConfigRange{long, short}[c])
				if got.Score != want[c].Score || !reflect.DeepEqual(got.UseCounts, want[c].UseCounts) {
					t.Fatalf("order %v, pass %d, range %d: score %v, want %v (the other range's is %v)", order, pass, c, got.Score, want[c].Score, want[1-c].Score)
				}
			}
		}
		if st := shared.Stats(); st.SimulatedRuns != 2*int64(len(specs)) || st.CacheHits != 2*int64(len(specs)) {
			t.Fatalf("order %v: %+v, want each range simulated once and then served from the memo", order, st)
		}
	}
}

// TestAggregateSampleCap pins the fix for the cap bypass: a bulk merge of
// per-specimen samples must truncate to the remaining budget instead of
// overshooting by up to a whole batch.
func TestAggregateSampleCap(t *testing.T) {
	eval := NewEvaluator(stats.DefaultObjective(1))
	big := make([]core.Memory, maxMemorySamplesPerWhisker-1)
	per := []*specimenResult{
		{sum: 1, flows: 1, counts: []int64{int64(len(big))}, consulted: []bool{true}, samples: [][]core.Memory{big}},
		{sum: 1, flows: 1, counts: []int64{int64(len(big))}, consulted: []bool{true}, samples: [][]core.Memory{big}},
		{sum: 1, flows: 1, counts: []int64{int64(len(big))}, consulted: []bool{true}, samples: [][]core.Memory{big}},
	}
	got := eval.aggregate(1, per)
	if len(got.MemorySamples[0]) != maxMemorySamplesPerWhisker {
		t.Fatalf("merged samples = %d, want exactly %d", len(got.MemorySamples[0]), maxMemorySamplesPerWhisker)
	}
	if got.UseCounts[0] != 3*int64(len(big)) {
		t.Error("use counts must keep accumulating past the sample cap")
	}
}

// TestEvaluationEdgeCases covers MostUsed/MostUsedAny/MedianMemory on empty
// and all-zero usage data.
func TestEvaluationEdgeCases(t *testing.T) {
	tree := core.DefaultWhiskerTree()
	empty := Evaluation{UseCounts: []int64{0}, MemorySamples: [][]core.Memory{nil}}
	if empty.MostUsed(tree, 0) != -1 {
		t.Error("MostUsed with all-zero counts must be -1")
	}
	if empty.MostUsedAny() != -1 {
		t.Error("MostUsedAny with all-zero counts must be -1")
	}
	if _, ok := empty.MedianMemory(0); ok {
		t.Error("MedianMemory with no samples must report false")
	}
	var zero Evaluation
	if zero.MostUsedAny() != -1 || zero.MostUsed(tree, 0) != -1 {
		t.Error("zero-value evaluation edge cases")
	}
	if _, ok := zero.MedianMemory(0); ok {
		t.Error("zero-value MedianMemory")
	}
}

// TestUsageCollectorTouches checks touches mark consultation without
// counting as uses, and that the sample-free collector stays sample-free.
func TestUsageCollectorTouches(t *testing.T) {
	u := new(usageCollector)
	u.reset(make([]int64, 2), make([]bool, 2), false)
	u.RecordTouch(1)
	u.RecordTouch(-1)
	u.RecordTouch(5)
	if !u.consulted[1] || u.consulted[0] {
		t.Error("RecordTouch consultation tracking")
	}
	if u.counts[1] != 0 {
		t.Error("a touch must not count as a use")
	}
	u.RecordUse(0, core.Memory{})
	if u.counts[0] != 1 || !u.consulted[0] {
		t.Error("RecordUse must count and consult")
	}
	if u.samples != nil {
		t.Error("sample-free collector grew samples")
	}
}
