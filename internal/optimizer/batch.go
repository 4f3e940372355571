package optimizer

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// BatchJob is one pending (tree, specimen) simulation. Jobs are
// self-contained — tree, specimen (with its seed) and design configuration
// together determine the simulation bit for bit — so a job can execute on
// any worker, local or remote, and a re-dispatch after a crash reproduces
// the identical result.
type BatchJob struct {
	Tree        *core.WhiskerTree
	Specimen    Specimen
	Config      ConfigRange
	WithSamples bool
	// Affinity is a stable shard key: the specimen's index within the
	// evaluation's specimen set. Distributed backends route equal-affinity
	// jobs to the same worker, so a worker sees the same specimens batch
	// after batch and its warm per-process state (pooled engines, reusable
	// sessions) keeps paying off across an optimization round.
	Affinity int
}

// BatchResult is the outcome of one BatchJob: the summed per-flow utilities,
// the number of flows that contributed, and per-rule usage indexed by
// whisker index (an ordering the tree's JSON codec preserves, so results
// computed from a decoded tree line up with the coordinator's in-memory
// tree).
type BatchResult struct {
	Sum       float64
	Flows     int
	Counts    []int64
	Consulted []bool
	// Samples holds the memory points that triggered each rule; nil unless
	// the job asked for sample collection.
	Samples [][]core.Memory
}

// BatchRunner executes a batch of specimen simulations and returns one
// result per job, in job order. Implementations must be exact: the results
// for a job must be bit-identical to RunBatchLocal's, regardless of where
// or how often the job runs. internal/distrib's Coordinator is the
// multi-process implementation.
type BatchRunner interface {
	RunBatch(objective stats.Objective, jobs []BatchJob) ([]BatchResult, error)
}

// RunBatchLocal executes jobs on an in-process worker pool. This is the single
// execution path for specimen simulations: the Evaluator calls it when no
// Backend is configured, and every distrib worker calls it on its shard —
// which is what makes a distributed run byte-identical to an in-process one by
// construction.
//
// Every job is a warm run. The improvement step scores its candidate trees on
// the same specimens and seeds, so within a batch the simulated world
// (Specimen, ConfigRange) repeats from job to job and only the rule table
// differs. Jobs are dispatched world-major; each worker builds one session per
// world it meets and re-runs it for every candidate, rebinding the flows'
// senders to the job's tree and usage collector. Sessions live for this call
// only, at most workers × worlds of them, and their engines go back to the
// scenario package's pool.
func RunBatchLocal(objective stats.Objective, workers int, jobs []BatchJob) ([]BatchResult, error) {
	if len(jobs) == 0 {
		return nil, nil
	}
	if workers <= 0 {
		workers = defaultWorkers()
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	order := worldMajor(jobs)
	out := make([]BatchResult, len(jobs))
	errs := make([]error, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bw := batchWorker{objective: objective, sim: scenario.Runner{}.NewWorker()}
			defer bw.sim.Close()
			for {
				n := int(next.Add(1)) - 1
				if n >= len(order) {
					return
				}
				i := order[n]
				out[i], errs[i] = bw.run(jobs[i])
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// world identifies the simulated network of a job: everything about it except
// the rule table the senders execute.
type world struct {
	spec Specimen
	cfg  ConfigRange
}

// worldMajor returns the job indices grouped by world, worlds in order of
// first appearance and jobs in batch order within a world, so a worker
// draining the list meets each world once.
func worldMajor(jobs []BatchJob) []int {
	seen := make(map[world]int)
	rank := make([]int, len(jobs))
	order := make([]int, len(jobs))
	for i, j := range jobs {
		k := world{j.Specimen, j.Config}
		r, ok := seen[k]
		if !ok {
			r = len(seen)
			seen[k] = r
		}
		rank[i] = r
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return rank[order[a]] < rank[order[b]] })
	return order
}

// batchWorker is one goroutine of RunBatchLocal: a scenario worker, plus the
// world it is currently in and the senders that world's session runs.
type batchWorker struct {
	objective stats.Objective
	sim       *scenario.Worker

	world world
	// spec is the current world's scenario; nil before the first job and
	// after a failed one, so the next job builds its world from scratch.
	spec *scenario.Spec
	// senders are the algorithms the world's session was built with; tree and
	// rec are what a sender built now is bound to (the job being run).
	senders []*core.Sender
	tree    *core.WhiskerTree
	rec     *usageCollector
}

// run simulates one job in the worker's warm world, entering the job's world
// first if it is a different one.
func (b *batchWorker) run(j BatchJob) (BatchResult, error) {
	u := newUsageCollector(j.Tree.NumWhiskers(), j.WithSamples)
	if k := (world{j.Specimen, j.Config}); b.spec == nil || b.world != k {
		b.world = k
		b.senders = nil
		spec := specFor(j.Specimen, j.Config, b.newSender)
		b.spec = &spec
	}
	b.tree, b.rec = j.Tree, u
	for _, s := range b.senders {
		s.Rebind(j.Tree, u)
	}
	r := b.sim.Run(b.spec, 0)
	if r.Err != nil {
		b.spec = nil
		return BatchResult{}, r.Err
	}
	sum, flows := scoreSpecimen(b.objective, r, j.Specimen)
	return BatchResult{Sum: sum, Flows: flows, Counts: u.counts, Consulted: u.consulted, Samples: u.samples}, nil
}

// newSender is the world's algorithm factory: the session under construction
// gets a sender bound to the job being run, remembered for rebinding.
func (b *batchWorker) newSender() cc.Algorithm {
	s := core.NewSender(b.tree)
	s.Recorder = b.rec
	b.senders = append(b.senders, s)
	return s
}

// specFor builds the declarative scenario of one specimen world. Every sender
// runs the same candidate RemyCC (the superrational setting of §4), supplied
// by newSender.
func specFor(spec Specimen, cfg ConfigRange, newSender func() cc.Algorithm) scenario.Spec {
	return scenario.New(
		scenario.WithName(spec.String()),
		scenario.WithLink(spec.LinkRateBps),
		scenario.WithQueue(scenario.QueueDropTail, cfg.QueueCapacityPackets),
		scenario.WithDuration(cfg.SpecimenDuration.Seconds()),
		scenario.WithSeed(spec.Seed),
		scenario.WithoutSummaries(),
		scenario.WithFlow(scenario.FlowSpec{
			Scheme:    "remy-candidate",
			Count:     spec.Senders,
			RTTMs:     spec.RTTMs,
			Workload:  cfg.scenarioWorkload(),
			Algorithm: newSender,
		}),
	)
}

// scoreSpecimen converts one specimen run into the summed per-flow utilities
// and the number of flows that contributed.
func scoreSpecimen(objective stats.Objective, res scenario.Result, spec Specimen) (float64, int) {
	fairShare := spec.LinkRateBps / float64(spec.Senders)
	var sum float64
	flows := 0
	for _, f := range res.Res.Flows {
		if f.Metrics.OnDuration <= 0 {
			continue
		}
		flows++
		sum += flowUtility(objective, f.Metrics, fairShare)
	}
	return sum, flows
}
