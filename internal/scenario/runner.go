package scenario

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/harness"
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

// summarize fills r's derived summaries from its flow results.
func (w *Worker) summarize(r *Result) {
	w.tputs, w.delays = w.tputs[:0], w.delays[:0]
	for _, f := range r.Res.Flows {
		if f.Metrics.OnDuration <= 0 {
			continue
		}
		w.tputs = append(w.tputs, f.Metrics.Mbps())
		w.delays = append(w.delays, f.Metrics.QueueingDelayMs())
	}
	r.Throughput = stats.Summarize(w.tputs)
	r.Delay = stats.Summarize(w.delays)
}

// Runner executes batches of Specs across a worker pool, one independent
// sim.Engine per repetition (the engine is single-threaded by design;
// parallelism comes from running many engines).
type Runner struct {
	// Registry resolves spec names; nil means Default().
	Registry *Registry
	// Workers bounds concurrent simulations; <= 0 means DefaultWorkers().
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

// DefaultWorkers is the pool size every worker pool uses when its caller sets
// none: all but one of the machine's CPUs, at least one.
func DefaultWorkers() int { return max(1, runtime.NumCPU()-1) }

func (r Runner) workers() int {
	if r.Workers > 0 {
		return r.Workers
	}
	return DefaultWorkers()
}

func (r Runner) logf(format string, args ...any) {
	if r.Logf != nil {
		r.Logf(format, args...)
	}
}

// sessionPool keeps idle sessions between workers and Runner instances. A
// pooled session is an engine with warm slab, heap and lane-ring capacity,
// and beside it every part the worlds built on that engine left behind, so
// the next world built on it — a campaign cell, a training world, a cold
// repetition — allocates (almost) nothing. A plain mutex-guarded free list is
// used instead of sync.Pool deliberately: sync.Pool may drop entries at any
// GC, which would silently reintroduce cold-start allocations mid-campaign
// (and flake the allocation regression tests that pin the warm path).
var sessionPool struct {
	mu   sync.Mutex
	free []*Session
}

// acquireSession returns an idle session, or a new one when there is none.
func acquireSession() *Session {
	sessionPool.mu.Lock()
	defer sessionPool.mu.Unlock()
	if n := len(sessionPool.free); n > 0 {
		ss := sessionPool.free[n-1]
		sessionPool.free[n-1] = nil
		sessionPool.free = sessionPool.free[:n-1]
		return ss
	}
	return new(Session)
}

func releaseSession(ss *Session) {
	if ss == nil {
		return
	}
	sessionPool.mu.Lock()
	sessionPool.free = append(sessionPool.free, ss)
	sessionPool.mu.Unlock()
}

// task is one (spec, repetition) unit of work.
type task struct {
	si, rep int
	spec    *Spec
}

// Worker is one goroutine's warm run state: a pooled session and the spec
// whose world it holds. It is the single place a spec meets an engine —
// rebuild the session's world for it once, then Run(seed) per repetition,
// with panics recovered into Result.Err — and both Runner.Stream's goroutines
// and the optimizer's batch workers execute through it. A Worker is not safe
// for concurrent use.
type Worker struct {
	reg *Registry
	// session is the worker's session, nil until its first run; spec and
	// invariant describe its world: consecutive runs of the same *Spec reuse
	// it with only the seed varying when the spec is rep-invariant. Specs
	// whose world differs per rep (synthesized link traces) rebuild the world
	// each rep, out of the previous one's parts.
	session   *Session
	spec      *Spec
	invariant bool
	// tputs and delays are summarize's working slices, kept between runs.
	tputs, delays []float64
}

// NewWorker returns an idle worker resolving names against the runner's
// registry. Close it to return its session to the pool.
func (r Runner) NewWorker() *Worker { return &Worker{reg: r.registry()} }

// Close returns the worker's session, parts and all, to the pool.
func (w *Worker) Close() {
	releaseSession(w.session)
	w.discard()
}

// discard forgets the worker's session without pooling it.
func (w *Worker) discard() {
	w.session = nil
	w.spec = nil
}

// Run executes repetition rep of spec, reusing the warm session when spec is
// the rep-invariant spec the worker ran last. Between such runs the caller may
// change the spec's Seed and nothing else: a rep-invariant spec builds the
// same world under every seed, and the seed is read afresh for each run, so
// one warm session serves any number of seeds (the optimizer's specimens of
// one shape).
//
// A panic anywhere in the run — a buggy scheme, a custom queue, the session
// itself — is recovered into Result.Err so one poisoned repetition cannot
// torch a whole campaign or training batch; the worker's session, engine and
// parts included, is then discarded (not returned to the pool) because a
// panic leaves it in an unknown state, and the next run starts cold.
func (w *Worker) Run(spec *Spec, rep int) Result {
	var out Result
	w.RunInto(spec, rep, &out)
	return out
}

// RunInto is Run writing the result into out, reusing the capacity of the
// slices out.Res holds: a caller that keeps one Result across runs collects
// every run's flows, links and churn classes without allocating for them.
// Everything in out is overwritten.
func (w *Worker) RunInto(spec *Spec, rep int, out *Result) {
	res := out.Res
	*out = Result{Rep: rep, SpecName: spec.Name}
	defer func() {
		if p := recover(); p != nil {
			w.discard()
			*out = Result{Rep: rep, SpecName: spec.Name,
				Err: fmt.Errorf("scenario: spec %q rep %d: panic: %v", spec.Name, rep, p)}
		}
	}()
	if w.session == nil || w.spec != spec || !w.invariant {
		w.spec = nil
		if w.session == nil {
			w.session = acquireSession()
		}
		if err := w.session.Rebuild(w.reg, spec, rep); err != nil {
			out.Err = err
			return
		}
		w.spec = spec
		w.invariant = spec.RepInvariant()
	}
	out.Seed = DeriveSeed(spec.Seed, rep)
	if err := w.session.RunInto(out.Seed, &res); err != nil {
		out.Err = fmt.Errorf("scenario: spec %q rep %d: %w", spec.Name, rep, err)
		return
	}
	out.Res = res
	if !spec.SkipSummaries {
		w.summarize(out)
	}
}

// Stream executes every repetition of every spec across a fixed pool of
// worker goroutines and streams results over the returned channel as they
// complete. Each worker owns one pooled session for its lifetime, reuses its
// world across a rep-invariant spec's repetitions and returns it to the pool
// when the stream ends (a cancelled stream's workers drop theirs instead), so
// steady-state campaigns run with warm-start (near-zero) per-rep allocation.
// Every Result sent is the consumer's: nothing in it is reused by a later
// repetition. Completion order depends on scheduling, but each Result is
// deterministic for its (spec, rep) pair; use RunAll for a deterministic
// ordering. The channel closes after the last result.
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
			defer func() {
				// A worker whose stream was cancelled may have been
				// abandoned mid-run (the campaign watchdog does that):
				// whatever state its session is in, it is not pooled.
				select {
				case <-done:
					worker.discard()
				default:
					worker.Close()
				}
			}()
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
