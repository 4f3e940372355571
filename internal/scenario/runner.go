package scenario

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/harness"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Result is the outcome of one repetition of one spec.
type Result struct {
	// SpecIndex and Rep identify the run within the batch.
	SpecIndex int
	Rep       int
	// SpecName is the spec's label.
	SpecName string
	// Seed is the derived seed the repetition ran with.
	Seed int64
	// Res holds the per-flow results and bottleneck counters.
	Res harness.Result
	// Throughput summarizes per-flow throughput in Mbps over the flows that
	// were on at least once; Delay likewise for queueing delay in ms.
	Throughput stats.Summary
	Delay      stats.Summary
	// Err is the run's failure, if any; the other result fields are zero.
	Err error
}

// summarize fills the derived summaries from the flow results.
func (r *Result) summarize() {
	var tputs, delays []float64
	for _, f := range r.Res.Flows {
		if f.Metrics.OnDuration <= 0 {
			continue
		}
		tputs = append(tputs, f.Metrics.Mbps())
		delays = append(delays, f.Metrics.QueueingDelayMs())
	}
	r.Throughput = stats.Summarize(tputs)
	r.Delay = stats.Summarize(delays)
}

// Runner executes batches of Specs across a worker pool, one independent
// sim.Engine per repetition (the engine is single-threaded by design;
// parallelism comes from running many engines).
type Runner struct {
	// Registry resolves spec names; nil means Default().
	Registry *Registry
	// Workers bounds concurrent simulations; <= 0 means NumCPU-1 (at least 1).
	Workers int
	// Logf, if non-nil, receives progress messages.
	Logf func(format string, args ...any)
}

func (r Runner) registry() *Registry {
	if r.Registry != nil {
		return r.Registry
	}
	return Default()
}

func (r Runner) workers() int {
	if r.Workers > 0 {
		return r.Workers
	}
	n := runtime.NumCPU() - 1
	if n < 1 {
		n = 1
	}
	return n
}

func (r Runner) logf(format string, args ...any) {
	if r.Logf != nil {
		r.Logf(format, args...)
	}
}

// enginePool recycles simulation engines across runs and Runner instances.
// A pooled engine carries warm slab, free-list, heap and lane-ring capacity
// from earlier runs, so a steady-state campaign's per-run setup allocates
// (almost) nothing. A plain mutex-guarded free list is used instead of
// sync.Pool deliberately: sync.Pool may drop entries at any GC, which would
// silently reintroduce cold-start allocations mid-campaign (and flake the
// allocation regression tests that pin the warm path).
var enginePool struct {
	mu   sync.Mutex
	free []*sim.Engine
}

func acquireEngine() *sim.Engine {
	enginePool.mu.Lock()
	defer enginePool.mu.Unlock()
	if n := len(enginePool.free); n > 0 {
		e := enginePool.free[n-1]
		enginePool.free[n-1] = nil
		enginePool.free = enginePool.free[:n-1]
		return e
	}
	return sim.NewEngine()
}

func releaseEngine(e *sim.Engine) {
	if e == nil {
		return
	}
	enginePool.mu.Lock()
	enginePool.free = append(enginePool.free, e)
	enginePool.mu.Unlock()
}

// task is one (spec, repetition) unit of work.
type task struct {
	si, rep int
	spec    *Spec
}

// Worker is one goroutine's warm run state: a pooled engine and, on it, the
// session of the spec it ran last. It is the single place a compiled spec
// meets an engine — compile once, build the session on the pooled engine, then
// Run(seed) per repetition, with panics recovered into Result.Err — and both
// Runner.Stream's goroutines and the optimizer's batch workers execute
// through it. A Worker is not safe for concurrent use.
type Worker struct {
	reg    *Registry
	engine *sim.Engine
	// spec, session and invariant describe the warm session: consecutive runs
	// of the same *Spec reuse it with only the seed varying when the spec is
	// rep-invariant. Specs whose compiled scenario differs per rep
	// (synthesized link traces) rebuild the session each rep but still reuse
	// the pooled engine underneath.
	spec      *Spec
	session   *harness.Session
	invariant bool
}

// NewWorker returns an idle worker resolving names against the runner's
// registry. Close it to return its engine to the pool.
func (r Runner) NewWorker() *Worker { return &Worker{reg: r.registry()} }

// Close returns the worker's engine to the pool and forgets its session.
func (w *Worker) Close() {
	releaseEngine(w.engine)
	w.engine = nil
	w.drop()
}

func (w *Worker) drop() {
	w.spec = nil
	w.session = nil
}

// Run executes repetition rep of spec, reusing the warm session when spec is
// the rep-invariant spec the worker ran last. Between such runs the caller may
// change the spec's Seed and nothing else: a rep-invariant spec compiles to
// the same scenario under every seed, and the seed is read afresh for each
// run, so one warm session serves any number of seeds (the optimizer's
// specimens of one shape).
//
// A panic anywhere in the run — a buggy scheme, a custom queue, the harness
// itself — is recovered into Result.Err so one poisoned repetition cannot
// torch a whole campaign or training batch; the worker's engine and session
// are then discarded (not returned to the pool) because a panic leaves them in
// an unknown state, and the next run starts cold.
func (w *Worker) Run(spec *Spec, rep int) (out Result) {
	defer func() {
		if p := recover(); p != nil {
			w.engine = nil
			w.drop()
			out = Result{Rep: rep, SpecName: spec.Name,
				Err: fmt.Errorf("scenario: spec %q rep %d: panic: %v", spec.Name, rep, p)}
		}
	}()
	out = Result{Rep: rep, SpecName: spec.Name}
	if w.session == nil || w.spec != spec || !w.invariant {
		scn, seed, err := spec.Compile(w.reg, rep)
		if err != nil {
			out.Err = err
			return out
		}
		out.Seed = seed
		if w.engine == nil {
			w.engine = acquireEngine()
		}
		ss, err := harness.NewSessionOn(w.engine, scn)
		if err != nil {
			w.drop()
			out.Err = fmt.Errorf("scenario: spec %q rep %d: %w", spec.Name, rep, err)
			return out
		}
		w.spec = spec
		w.session = ss
		w.invariant = spec.RepInvariant()
	} else {
		out.Seed = DeriveSeed(spec.Seed, rep)
	}
	res, err := w.session.Run(out.Seed)
	if err != nil {
		out.Err = fmt.Errorf("scenario: spec %q rep %d: %w", spec.Name, rep, err)
		return out
	}
	out.Res = res
	if !spec.SkipSummaries {
		out.summarize()
	}
	return out
}

// Stream executes every repetition of every spec across a fixed pool of
// worker goroutines and streams results over the returned channel as they
// complete. Each worker owns one pooled engine for its lifetime and reuses
// sessions across a rep-invariant spec's repetitions, so steady-state
// campaigns run with warm-start (near-zero) per-rep allocation. Completion
// order depends on scheduling, but each Result is deterministic for its
// (spec, rep) pair; use RunAll for a deterministic ordering. The channel
// closes after the last result.
//
// done, when non-nil, cancels the stream: once it is closed, no new
// repetitions start, in-flight workers discard their results instead of
// blocking on the abandoned channel, and every goroutine exits. A consumer
// that stops reading early MUST close done (directly or via defer) or the
// producer and workers leak, blocked on their sends forever.
func (r Runner) Stream(done <-chan struct{}, specs []Spec) <-chan Result {
	out := make(chan Result)
	tasks := make(chan task)
	var wg sync.WaitGroup
	for w := 0; w < r.workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			worker := r.NewWorker()
			defer worker.Close()
			for t := range tasks {
				select {
				case <-done:
					// Cancelled between dispatch and start; skip the run.
					return
				default:
				}
				res := worker.Run(t.spec, t.rep)
				res.SpecIndex = t.si
				select {
				case out <- res:
				case <-done:
					// The consumer gave up; drop the result so the worker
					// (and the producer waiting on wg) can exit.
					return
				}
			}
		}()
	}
	go func() {
		defer close(out)
		defer wg.Wait()
		defer close(tasks)
		for si := range specs {
			spec := &specs[si]
			reps := spec.Reps()
			r.logf("scenario: running %q (%d repetitions)", spec.Name, reps)
			for rep := 0; rep < reps; rep++ {
				select {
				case <-done:
					return
				case tasks <- task{si: si, rep: rep, spec: spec}:
				}
			}
		}
	}()
	return out
}

// RunAll executes every repetition of every spec and returns the results
// ordered by (spec index, repetition) — a deterministic order regardless of
// worker count. The first error encountered (in that order) is returned with
// the partial results.
func (r Runner) RunAll(specs []Spec) ([]Result, error) {
	offsets := make([]int, len(specs))
	total := 0
	for i := range specs {
		offsets[i] = total
		total += specs[i].Reps()
	}
	results := make([]Result, total)
	for res := range r.Stream(nil, specs) {
		results[offsets[res.SpecIndex]+res.Rep] = res
	}
	for _, res := range results {
		if res.Err != nil {
			return results, res.Err
		}
	}
	return results, nil
}

// RunOne executes a single spec (all its repetitions) and returns its results
// in repetition order.
func (r Runner) RunOne(spec Spec) ([]Result, error) {
	return r.RunAll([]Spec{spec})
}
