package optimizer

import (
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
)

// batchTrees returns rule tables of growing size over one action lineage: the
// default single rule, that rule split at a used memory point (8 rules), the
// split table with one action nudged, and the split table split again (15).
func batchTrees(t *testing.T, cfg ConfigRange, specimens []Specimen) []*core.WhiskerTree {
	t.Helper()
	one := core.DefaultWhiskerTree()
	split := multiRuleTree(t, cfg, specimens, 1)
	w, _ := split.Whisker(0)
	nudged, err := split.WithAction(0, w.Action.Neighbors(1)[0])
	if err != nil {
		t.Fatal(err)
	}
	deeper := split.Clone()
	w, _ = deeper.Whisker(0)
	if err := deeper.Split(0, w.Domain.Midpoint()); err != nil {
		t.Fatal(err)
	}
	return []*core.WhiskerTree{one, split, nudged, deeper}
}

func sameBatchResult(a, b BatchResult) bool {
	return math.Float64bits(a.Sum) == math.Float64bits(b.Sum) && a.Flows == b.Flows &&
		reflect.DeepEqual(a.Counts, b.Counts) && reflect.DeepEqual(a.Consulted, b.Consulted) &&
		reflect.DeepEqual(a.Samples, b.Samples)
}

// TestRunBatchWarmMatchesCold is the exactness guard for warm training jobs:
// a shuffled batch of trees × specimens, run through RunBatchLocal's reused
// per-world sessions, must return for every job exactly what that job returns
// when it is the only one in its batch (a cold session), at any worker count.
func TestRunBatchWarmMatchesCold(t *testing.T) {
	obj := stats.DefaultObjective(1)
	cfg := tinyConfig()
	cfg.SpecimenDuration = 2 * sim.Second
	specimens := cfg.SampleSet(3, sim.NewRNG(33))
	trees := batchTrees(t, cfg, specimens)

	var jobs []BatchJob
	for ti, tree := range trees {
		for si, sp := range specimens {
			jobs = append(jobs, BatchJob{Tree: tree, Specimen: sp, Config: cfg, WithSamples: (ti+si)%2 == 0, Affinity: si})
		}
	}
	// A second configuration makes worlds that share a specimen but not a
	// session.
	short := cfg
	short.SpecimenDuration = sim.Second
	jobs = append(jobs, BatchJob{Tree: trees[1], Specimen: specimens[0], Config: short},
		BatchJob{Tree: trees[3], Specimen: specimens[0], Config: short, WithSamples: true})
	shuffled := make([]BatchJob, len(jobs))
	for i, p := range sim.NewRNG(7).Perm(len(jobs)) {
		shuffled[i] = jobs[p]
	}
	jobs = shuffled

	// The shuffle must leave, somewhere in the dispatch order, a table
	// following a smaller one on the same world: the rebound senders then
	// index rules their predecessor's collector never had.
	order := worldMajor(jobs)
	grows := false
	for n := 1; n < len(order); n++ {
		prev, cur := jobs[order[n-1]], jobs[order[n]]
		if prev.Specimen == cur.Specimen && prev.Config == cur.Config && cur.Tree.NumWhiskers() > prev.Tree.NumWhiskers() {
			grows = true
		}
	}
	if !grows {
		t.Fatal("shuffle left no growing-table transition on a reused world; pick another seed")
	}

	cold := make([]BatchResult, len(jobs))
	for i, j := range jobs {
		r, err := RunBatchLocal(obj, 1, []BatchJob{j})
		if err != nil {
			t.Fatal(err)
		}
		cold[i] = r[0]
		if (r[0].Samples != nil) != j.WithSamples {
			t.Fatalf("job %d: samples present = %v, asked %v", i, r[0].Samples != nil, j.WithSamples)
		}
	}
	for _, workers := range []int{1, 4} {
		warm, err := RunBatchLocal(obj, workers, jobs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range jobs {
			if !sameBatchResult(warm[i], cold[i]) {
				t.Errorf("workers=%d job %d (%d rules on %v): warm result differs from the job run alone\nwarm: sum=%v flows=%d counts=%v\ncold: sum=%v flows=%d counts=%v",
					workers, i, jobs[i].Tree.NumWhiskers(), jobs[i].Specimen,
					warm[i].Sum, warm[i].Flows, warm[i].Counts, cold[i].Sum, cold[i].Flows, cold[i].Counts)
			}
		}
	}
}

func TestWorldMajorGroupsInFirstAppearanceOrder(t *testing.T) {
	a, b, c := Specimen{Seed: 1}, Specimen{Seed: 2}, Specimen{Seed: 3}
	var jobs []BatchJob
	for _, sp := range []Specimen{b, a, b, c, a, b} {
		jobs = append(jobs, BatchJob{Specimen: sp})
	}
	if got, want := worldMajor(jobs), []int{0, 2, 5, 1, 4, 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("worldMajor = %v, want %v", got, want)
	}
}

// TestBatchPanicIsTheJobsError runs a rule table whose lookups panic (the zero
// WhiskerTree has no nodes) in the middle of a reused world. The panic must
// come back as that job's error, and the jobs after it — same worker, same
// world — must still return exactly what they return alone.
func TestBatchPanicIsTheJobsError(t *testing.T) {
	obj := stats.DefaultObjective(1)
	cfg := tinyConfig()
	cfg.SpecimenDuration = sim.Second
	sp := cfg.SampleSet(1, sim.NewRNG(5))[0]
	good := BatchJob{Tree: core.DefaultWhiskerTree(), Specimen: sp, Config: cfg}
	bad := BatchJob{Tree: &core.WhiskerTree{}, Specimen: sp, Config: cfg}

	alone, err := RunBatchLocal(obj, 1, []BatchJob{good})
	if err != nil {
		t.Fatal(err)
	}

	w := batchWorker{objective: obj, sim: scenario.Runner{}.NewWorker()}
	defer w.sim.Close()
	for step, j := range []BatchJob{good, bad, good, bad, good} {
		r, err := w.run(j)
		if j.Tree == bad.Tree {
			if err == nil || !strings.Contains(err.Error(), "panic") {
				t.Fatalf("step %d: panicking table returned err = %v", step, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if !sameBatchResult(r, alone[0]) {
			t.Errorf("step %d: result after a panic differs from the job run alone", step)
		}
	}

	if _, err := RunBatchLocal(obj, 2, []BatchJob{good, bad, good}); err == nil || !strings.Contains(err.Error(), "panic") {
		t.Errorf("batch with a panicking job returned err = %v", err)
	}
	again, err := RunBatchLocal(obj, 2, []BatchJob{good, good})
	if err != nil {
		t.Fatal(err)
	}
	for i := range again {
		if !sameBatchResult(again[i], alone[0]) {
			t.Errorf("job %d of the batch after a failed batch differs from the job run alone", i)
		}
	}
}

// TestTrainBatchSteadyStateAllocs pins the warm-job contract beside
// campaign's TestCampaignSteadyStateAllocs: a batch of candidate tables over
// a few worlds must cost per job only the result assembly (usage collector,
// flow results), nowhere near the ~700 allocations of building a session per
// job — so a reintroduced per-job build fails a test rather than a benchmark.
func TestTrainBatchSteadyStateAllocs(t *testing.T) {
	obj := stats.DefaultObjective(1)
	cfg := tinyConfig()
	cfg.SpecimenDuration = sim.Second
	specimens := cfg.SampleSet(4, sim.NewRNG(9))
	base := core.DefaultWhiskerTree()
	w, _ := base.Whisker(0)
	var jobs []BatchJob
	for _, a := range w.Action.Neighbors(1) {
		tree, err := base.WithAction(0, a)
		if err != nil {
			t.Fatal(err)
		}
		for si, sp := range specimens {
			jobs = append(jobs, BatchJob{Tree: tree, Specimen: sp, Config: cfg, Affinity: si})
		}
	}
	for len(jobs) < 200 {
		jobs = append(jobs, jobs...)
	}

	measure := func() float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := RunBatchLocal(obj, 1, jobs); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / float64(len(jobs))
	}
	measure() // grow the pooled engine
	perJob := measure()
	t.Logf("warm batch of %d jobs over %d worlds: %.1f allocs/job", len(jobs), len(specimens), perJob)
	if perJob > 120 {
		t.Fatalf("warm training batch allocates %.1f allocs/job; per-world session reuse has regressed (want <= 120)", perJob)
	}
}
