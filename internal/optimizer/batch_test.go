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

// runCold runs one job the way a process that has run nothing yet would: on a
// worker of its own, in a session built for it and dropped afterwards.
func runCold(t *testing.T, obj stats.Objective, j BatchJob) BatchResult {
	t.Helper()
	w := batchWorker{objective: obj, sim: scenario.Runner{}.NewWorker()}
	defer w.sim.Close()
	r, err := runAlone(&w, j)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// runAlone runs one job on w with usage rows of its own.
func runAlone(w *batchWorker, j BatchJob) (BatchResult, error) {
	n := j.Tree.NumWhiskers()
	return w.run(j, make([]int64, n), make([]bool, n))
}

// TestRunBatchWarmMatchesCold is the exactness guard for warm training jobs:
// a shuffled batch of trees × specimens, run through RunBatchLocal's reused
// per-world sessions, must return for every job exactly what that job returns
// in a cold session of its own, at any worker count.
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
	order, _ := worldMajor(jobs)
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
		cold[i] = runCold(t, obj, j)
		if (cold[i].Samples != nil) != j.WithSamples {
			t.Fatalf("job %d: samples present = %v, asked %v", i, cold[i].Samples != nil, j.WithSamples)
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

// TestTrainSessionsOutliveBatch is the guard for sessions that outlive the
// batch and the seed. After one batch over a shape, a second batch over the
// same shape — other seeds, other rule tables — must run in the session the
// first one left in the pool: the pooled worker's senders are the very objects
// it had before, so no session was built and core.NewSender was never called.
// And every result, at any worker count, must equal bit for bit what the job
// returns in a cold session of its own.
func TestTrainSessionsOutliveBatch(t *testing.T) {
	obj := stats.DefaultObjective(1)
	cfg := tinyConfig()
	cfg.SpecimenDuration = 2 * sim.Second
	first := cfg.SampleSet(3, sim.NewRNG(41))
	second := cfg.SampleSet(5, sim.NewRNG(42))
	trees := batchTrees(t, cfg, first)
	batch := func(specimens []Specimen, trees []*core.WhiskerTree) []BatchJob {
		var jobs []BatchJob
		for ti, tree := range trees {
			for si, sp := range specimens {
				jobs = append(jobs, BatchJob{Tree: tree, Specimen: sp, Config: cfg, WithSamples: (ti+si)%3 == 0, Affinity: si})
			}
		}
		return jobs
	}
	one, two := batch(first, trees[:2]), batch(second, trees[1:])
	for _, sp := range append(first[1:], second...) {
		if (worldOf(BatchJob{Specimen: sp}) != worldOf(BatchJob{Specimen: first[0]})) || sp.Seed == first[0].Seed {
			t.Fatalf("specimen %v: the batches must be other seeds of one shape (%v)", sp, first[0])
		}
	}
	cold := make([]BatchResult, len(two))
	for i, j := range two {
		cold[i] = runCold(t, obj, j)
	}
	check := func(what string, got []BatchResult) {
		t.Helper()
		for i := range two {
			if !sameBatchResult(got[i], cold[i]) {
				t.Errorf("%s, job %d (%d rules on %v): result differs from the job's cold run", what, i, two[i].Tree.NumWhiskers(), two[i].Specimen)
			}
		}
	}

	if _, err := RunBatchLocal(obj, 1, one); err != nil {
		t.Fatal(err)
	}
	// The pool's free list is last in, first out: NewWorker takes the worker
	// the batch released.
	w := scenario.Runner{}.NewWorker()
	b, _ := w.Local.(*batchWorker)
	if b == nil || b.spec == nil || len(b.senders) != cfg.MaxSenders {
		t.Fatalf("a one-worker batch left no worker in a world of %d senders on top of the pool", cfg.MaxSenders)
	}
	built := append([]*core.Sender(nil), b.senders...)
	w.Close()
	got, err := RunBatchLocal(obj, 1, two)
	if err != nil {
		t.Fatal(err)
	}
	check("second batch, 1 worker", got)
	if again := (scenario.Runner{}).NewWorker(); again != w {
		t.Fatal("the second batch did not take the pooled worker and give it back")
	} else {
		again.Close()
	}
	for i, s := range b.senders {
		if len(b.senders) != len(built) || s != built[i] {
			t.Fatalf("the second batch built a session: sender %d of %d is not the one the first batch left", i, len(b.senders))
		}
	}

	// Several workers share the pool (under -race in CI): whichever of them
	// are warm, cold or new, the results are the cold ones.
	for round := 0; round < 3; round++ {
		got, err := RunBatchLocal(obj, 4, two)
		if err != nil {
			t.Fatal(err)
		}
		check("4 workers", got)
	}
}

// TestBatchRowsShareABlock: RunBatchLocal carves every job's usage rows from
// one block per batch, and its workers write their jobs' disjoint rows at the
// same time (under -race in CI). At 1 and 4 workers, each job's result must be
// exactly what it returns alone, with rows capped at its tree's size, so an
// append to one copies it instead of writing into the next job's.
func TestBatchRowsShareABlock(t *testing.T) {
	obj := stats.DefaultObjective(1)
	cfg := tinyConfig()
	cfg.SpecimenDuration = sim.Second
	specimens := cfg.SampleSet(2, sim.NewRNG(51))
	var jobs []BatchJob
	for ti, tree := range batchTrees(t, cfg, specimens) {
		for si, sp := range specimens {
			jobs = append(jobs, BatchJob{Tree: tree, Specimen: sp, Config: cfg, WithSamples: ti == 2 && si == 1, Affinity: si})
		}
	}
	cold := make([]BatchResult, len(jobs))
	for i, j := range jobs {
		cold[i] = runCold(t, obj, j)
	}
	for _, workers := range []int{1, 4} {
		got, err := RunBatchLocal(obj, workers, jobs)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range got {
			if !sameBatchResult(r, cold[i]) {
				t.Errorf("workers=%d job %d (%d rules on %v): result differs from the job run alone", workers, i, jobs[i].Tree.NumWhiskers(), jobs[i].Specimen)
			}
			if n := jobs[i].Tree.NumWhiskers(); cap(r.Counts) != n || cap(r.Consulted) != n {
				t.Errorf("workers=%d job %d: rows of capacity %d and %d for %d rules", workers, i, cap(r.Counts), cap(r.Consulted), n)
			}
		}
	}
}

func TestWorldMajorGroupsInFirstAppearanceOrder(t *testing.T) {
	// A world is a shape: seeds differ within one and do not split it.
	a, b, c := Specimen{Senders: 1}, Specimen{Senders: 2}, Specimen{Senders: 3}
	var jobs []BatchJob
	for i, sp := range []Specimen{b, a, b, c, a, b} {
		sp.Seed = int64(i)
		jobs = append(jobs, BatchJob{Specimen: sp})
	}
	order, starts := worldMajor(jobs)
	if want := []int{0, 2, 5, 1, 4, 3}; !reflect.DeepEqual(order, want) {
		t.Errorf("worldMajor order = %v, want %v", order, want)
	}
	if want := []int{0, 3, 5, 6}; !reflect.DeepEqual(starts, want) {
		t.Errorf("worldMajor starts = %v, want %v", starts, want)
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

	alone := []BatchResult{runCold(t, obj, good)}

	w := batchWorker{objective: obj, sim: scenario.Runner{}.NewWorker()}
	defer w.sim.Close()
	for step, j := range []BatchJob{good, bad, good, bad, good} {
		r, err := runAlone(&w, j)
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

	// Through the pool: a worker whose last job panicked, or could not be
	// compiled, goes back without a world, and the batch after it — on those
	// very workers — returns what the job returns alone.
	unbuildable := good
	unbuildable.Specimen.LinkRateBps = 0
	for what, failing := range map[string]BatchJob{"panic": bad, "rate_bps": unbuildable} {
		if _, err := RunBatchLocal(obj, 1, []BatchJob{good, failing}); err == nil || !strings.Contains(err.Error(), what) {
			t.Errorf("batch ending in a failing job (%s) returned err = %v", what, err)
		}
		// The pool's free list is last in, first out: this is the worker
		// that ran the failing job.
		last := scenario.Runner{}.NewWorker()
		if b, _ := last.Local.(*batchWorker); b == nil || b.spec != nil {
			t.Fatalf("%s: the failed worker went back to the pool with its world", what)
		}
		last.Close()
		if _, err := RunBatchLocal(obj, 2, []BatchJob{good, failing, good}); err == nil || !strings.Contains(err.Error(), what) {
			t.Errorf("batch with a failing job (%s) returned err = %v", what, err)
		}
		again, err := RunBatchLocal(obj, 2, []BatchJob{good, good})
		if err != nil {
			t.Fatal(err)
		}
		for i := range again {
			if !sameBatchResult(again[i], alone[0]) {
				t.Errorf("%s: job %d of the batch after a failed batch differs from the job run alone", what, i)
			}
		}
	}
}

// TestTrainBatchSteadyStateAllocs pins the warm-job contract beside
// campaign's TestCampaignSteadyStateAllocs: a batch of candidate tables over
// a few seeds of one shape, after an earlier batch over that shape, must
// allocate per batch, not per job. A job's usage rows come from the batch's
// blocks and its run from the warm session, so the batch's own handful of
// allocations (its blocks, results, dispatch order, goroutines) spread over
// 208 jobs come to about 0.1 per job. A per-job allocation, such as a usage
// row made per job, fails this test; so does a session built per job, per
// batch or per seed (~700 allocations).
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
	measure() // build the world's session; it stays in the pool
	perJob := measure()
	t.Logf("warm batch of %d jobs over %d seeds of one shape: %.1f allocs/job", len(jobs), len(specimens), perJob)
	if perJob > 1 {
		t.Fatalf("warm training batch allocates %.1f allocs/job; a job allocates on its own again, or session reuse across batches and seeds has regressed (want <= 1)", perJob)
	}
}
