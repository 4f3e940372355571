package optimizer

import (
	"fmt"

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
//
// The Counts and Consulted rows of one batch's results are carved from one
// block of each, and each row is capped at its length: append to a row
// copies it rather than writing into the next job's, and the block stays
// alive as long as any of its rows does.
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
// or how often the job runs. They must not keep jobs once RunBatch has
// returned: the Evaluator reuses the slice. A batch's rows may share blocks,
// as RunBatchLocal's and a decoded result frame's do, provided each row is
// capped at its length. internal/distrib's Coordinator is the multi-process
// implementation.
type BatchRunner interface {
	RunBatch(objective stats.Objective, jobs []BatchJob) ([]BatchResult, error)
}

// RunBatchLocal executes jobs on a scenario.Pool of workers. This is the
// single execution path for specimen simulations: the Evaluator calls it when
// no Backend is configured, and every distrib worker calls it on its shard —
// which is what makes a distributed run byte-identical to an in-process one by
// construction.
//
// Every job is a warm run. The improvement step scores its candidate trees on
// the same specimens, batch after batch, so the simulated world (the
// specimen's shape and the ConfigRange) repeats from job to job and only the
// rule table and the seed differ. Jobs are dispatched world-major, one pool
// group per world; a worker builds one session per world it meets and re-runs
// it for every candidate and every seed, rebinding the flows' senders to the
// job's tree and usage collector.
//
// A worker's batch state — its world's spec and senders — rides in its Local
// field and so stays with it, warm session and all, in the pool's free list
// between calls: the next batch — the next of a round's improvement steps, or
// a distrib worker's next shard — starts in a warm world when it meets the
// same one. A worker whose job failed goes back without its world.
//
// The batch's usage rows are allocated up front, one Counts block and one
// Consulted block sized from every job's NumWhiskers, so a job allocates none
// of its own: each worker writes its jobs' disjoint rows in place.
func RunBatchLocal(objective stats.Objective, workers int, jobs []BatchJob) ([]BatchResult, error) {
	if len(jobs) == 0 {
		return nil, nil
	}
	order, starts := worldMajor(jobs)
	out := usageRows(jobs)
	errs := make([]error, len(jobs))
	pool := scenario.Pool[struct{}]{
		Workers: workers,
		Open:    func(g int) (int, error) { return starts[g+1] - starts[g], nil },
		Task: func(w *scenario.Worker, g, k int, _ *struct{}) error {
			b, ok := w.Local.(*batchWorker)
			if !ok {
				b = &batchWorker{sim: w}
				w.Local = b
			}
			b.objective = objective
			i := order[starts[g]+k]
			out[i], errs[i] = b.run(jobs[i], out[i].Counts, out[i].Consulted)
			return nil
		},
	}
	pool.Run(nil, len(starts)-1)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// usageRows returns one result per job holding only the job's zeroed Counts
// and Consulted rows, each capped at its tree's NumWhiskers and carved from
// one block of each kind for the whole batch.
func usageRows(jobs []BatchJob) []BatchResult {
	rules := 0
	for _, j := range jobs {
		rules += j.Tree.NumWhiskers()
	}
	counts, consulted := make([]int64, rules), make([]bool, rules)
	out := make([]BatchResult, len(jobs))
	for i, j := range jobs {
		n := j.Tree.NumWhiskers()
		out[i].Counts, counts = counts[:n:n], counts[n:]
		out[i].Consulted, consulted = consulted[:n:n], consulted[n:]
	}
	return out
}

// world identifies the simulated network of a job: everything about it except
// the rule table the senders execute and the seed of the run (spec.Seed is
// always zero here).
type world struct {
	spec Specimen
	cfg  ConfigRange
}

func worldOf(j BatchJob) world {
	w := world{j.Specimen, j.Config}
	w.spec.Seed = 0
	return w
}

// worldMajor returns the job indices grouped by world, worlds in order of
// first appearance and jobs in batch order within a world, and where each
// world's jobs start: world w's are order[starts[w]:starts[w+1]]. The two,
// and each job's world, are carved from one block.
func worldMajor(jobs []BatchJob) (order, starts []int) {
	n := len(jobs)
	block := make([]int, 3*n+1)
	rank := block[:n]
	seen := make(map[world]int)
	for i, j := range jobs {
		k := worldOf(j)
		r, ok := seen[k]
		if !ok {
			r = len(seen)
			seen[k] = r
		}
		rank[i] = r
	}
	// A counting sort by world: starts[w+1] counts world w's jobs, and the
	// running sums make it where world w+1 starts.
	order, starts = block[n:2*n:2*n], block[2*n:2*n+len(seen)+1]
	for _, r := range rank {
		starts[r+1]++
	}
	for w := 1; w < len(starts); w++ {
		starts[w] += starts[w-1]
	}
	for i, r := range rank {
		order[starts[r]] = i
		starts[r]++
	}
	// Each starts[w] has moved on to where world w ends, which is where
	// world w+1 starts: shift them back.
	copy(starts[1:], starts)
	starts[0] = 0
	return order, starts
}

// batchWorker is a scenario worker's RunBatchLocal state: the world it is in
// and the senders that world's session runs.
type batchWorker struct {
	objective stats.Objective
	sim       *scenario.Worker

	world world
	// spec is the current world's scenario; nil before the first job and
	// after a failed one, so the next job builds its world from scratch.
	spec *scenario.Spec
	// senders are the algorithms the world's session was built with; tree and
	// rec are what a sender built now is bound to (the job being run), and
	// built whether the run under way has built one yet: a run that rebuilds
	// the world (a new world, or a session the pool handed over without it)
	// replaces them all.
	senders []*core.Sender
	tree    *core.WhiskerTree
	rec     *usageCollector
	built   bool
	// res is the buffer every run's result is collected into; nothing run
	// returns aliases it.
	res scenario.Result
}

// run simulates one job in the worker's warm world, entering the job's world
// first if it is a different one. counts and consulted are the job's zeroed
// usage rows, one element per rule of its tree; the result holds them.
//
//repo:hotpath per-job warm run: rebinds the world's senders to the job's tree and usage rows
func (b *batchWorker) run(j BatchJob, counts []int64, consulted []bool) (BatchResult, error) {
	if b.rec == nil {
		b.rec = new(usageCollector)
	}
	u := b.rec
	u.reset(counts, consulted, j.WithSamples)
	if k := worldOf(j); b.spec == nil || b.world != k {
		b.world = k
		//lint:ignore hotalloc entering a new world; the session built here is reused for every later job in it
		spec := specFor(k.spec, k.cfg, b.newSender)
		b.spec = &spec
	}
	b.tree = j.Tree
	for _, s := range b.senders {
		s.Rebind(j.Tree, u)
	}
	b.spec.Seed = j.Specimen.Seed
	b.built = false
	b.sim.RunInto(b.spec, 0, &b.res)
	if err := b.res.Err; err != nil {
		b.spec = nil
		//lint:ignore hotalloc error path; the failed job ends its batch
		return BatchResult{}, fmt.Errorf("optimizer: %v: %w", j.Specimen, err)
	}
	sum, flows := scoreSpecimen(b.objective, &b.res, j.Specimen)
	return BatchResult{Sum: sum, Flows: flows, Counts: u.counts, Consulted: u.consulted, Samples: u.samples}, nil
}

// newSender is the world's algorithm factory: the session under construction
// gets a sender bound to the job being run, remembered for rebinding.
func (b *batchWorker) newSender() cc.Algorithm {
	if !b.built {
		b.senders, b.built = b.senders[:0], true
	}
	s := core.NewSender(b.tree)
	s.Recorder = b.rec
	b.senders = append(b.senders, s)
	return s
}

// specFor builds the declarative scenario of one specimen world; the caller
// sets the seed of each run. Every sender runs the same candidate RemyCC (the
// superrational setting of §4), supplied by newSender.
func specFor(spec Specimen, cfg ConfigRange, newSender func() cc.Algorithm) scenario.Spec {
	return scenario.New(
		scenario.WithName("training world"),
		scenario.WithLink(spec.LinkRateBps),
		scenario.WithQueue(scenario.QueueDropTail, cfg.QueueCapacityPackets),
		scenario.WithDuration(cfg.SpecimenDuration.Seconds()),
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
func scoreSpecimen(objective stats.Objective, res *scenario.Result, spec Specimen) (float64, int) {
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
