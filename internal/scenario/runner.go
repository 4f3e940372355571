package scenario

import (
	"fmt"

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

// summarize fills r's derived summaries from its flow results, sorting the
// worker's scratch slices in place rather than copying them.
func (w *Worker) summarize(r *Result) {
	w.tputs, w.delays = w.tputs[:0], w.delays[:0]
	for _, f := range r.Res.Flows {
		if f.Metrics.OnDuration <= 0 {
			continue
		}
		w.tputs = append(w.tputs, f.Metrics.Mbps())
		w.delays = append(w.delays, f.Metrics.QueueingDelayMs())
	}
	r.Throughput = stats.SummarizeInPlace(w.tputs)
	r.Delay = stats.SummarizeInPlace(w.delays)
}

// Runner executes batches of Specs on a Pool, one independent sim.Engine per
// repetition (the engine is single-threaded by design; parallelism comes from
// running many engines).
type Runner struct {
	// Registry resolves spec names; nil means Default().
	Registry *Registry
	// Workers bounds concurrent simulations; <= 0 means PoolSize's default.
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

func (r Runner) logf(format string, args ...any) {
	if r.Logf != nil {
		r.Logf(format, args...)
	}
}

// Worker is one pool worker's warm run state: a session and the spec whose
// world it holds. It is the single place a spec meets an engine — rebuild the
// session's world for it once, then Run(seed) per repetition, with panics
// recovered into Result.Err — and every Pool task executes through it. A
// Worker is not safe for concurrent use.
type Worker struct {
	// Local is its user's own state for this worker (the optimizer keeps a
	// training world's senders here); it stays with the worker between runs.
	Local any

	reg *Registry
	// session is the worker's session, nil until its first run; spec and
	// invariant describe its world: consecutive runs of the same *Spec reuse
	// it with only the seed varying when the spec is rep-invariant. Specs
	// whose world differs per rep (synthesized link traces) rebuild the world
	// each rep, out of the previous one's parts.
	session   *Session
	spec      *Spec
	invariant bool
	// stream is the Stream whose spec the worker ran last: the specs of an
	// earlier one, whose caller owns them, may have changed since.
	stream chan Result
	// tputs and delays are summarize's working slices, kept between runs.
	tputs, delays []float64
}

// NewWorker returns an idle worker from the pool's free list, resolving
// names against the runner's registry. Close it to return it there.
func (r Runner) NewWorker() *Worker { return acquireWorker(r.registry()) }

// Close returns the worker, warm session and all, to the pool's free list.
func (w *Worker) Close() { releaseWorker(w) }

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
			w.session = new(Session)
		}
		if err := w.session.Rebuild(w.reg, spec, rep); err != nil {
			out.Err = err
			return
		}
		w.spec = spec
		w.invariant = !w.session.perRep
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

// Stream executes every repetition of every spec on a Pool of Workers, one
// group per spec, and streams results over the returned channel as they
// complete. Each worker keeps its session's world across a rep-invariant
// spec's repetitions, so steady-state campaigns run with warm-start
// (near-zero) per-rep allocation; a worker's first repetition of a Stream
// rebuilds its world, since the caller may have changed a spec it ran in an
// earlier one. Every Result sent is the consumer's: nothing in it is reused
// by a later repetition. The per-flow, per-link and per-class rows of a spec's
// repetitions are carved from one block per spec (see resultRows), which a
// Result kept keeps alive. Completion order depends on scheduling (one worker
// runs them in order), but each Result is deterministic for its (spec, rep)
// pair; use RunAll for a deterministic ordering. The channel closes after the
// last result.
//
// done, when non-nil, cancels the stream: once it is closed, no new
// repetitions start, in-flight repetitions discard their results instead of
// blocking on the abandoned channel, and every goroutine exits (a worker that
// was mid-run drops its session rather than pool it). A consumer that stops
// reading early MUST close done (directly or via defer) or the workers leak,
// blocked on their sends forever.
func (r Runner) Stream(done <-chan struct{}, specs []Spec) <-chan Result {
	out := make(chan Result)
	rows := make([]resultRows, len(specs))
	pool := Pool[struct{}]{
		Registry: r.Registry,
		Workers:  r.Workers,
		Open: func(si int) (int, error) {
			r.logf("scenario: running %q (%d repetitions)", specs[si].Name, specs[si].Reps())
			rows[si] = newResultRows(&specs[si])
			return specs[si].Reps(), nil
		},
		Task: func(w *Worker, si, rep int, _ *struct{}) error {
			select {
			case <-done:
				return nil // cancelled: start no repetition
			default:
			}
			if w.stream != out {
				w.stream, w.spec = out, nil // first task here: rebuild
			}
			res := Result{Res: rows[si].carve(rep)}
			w.RunInto(&specs[si], rep, &res)
			res.SpecIndex = si
			select {
			case <-done:
			default:
				select {
				case out <- res:
					return nil
				case <-done:
				}
			}
			w.discard() // cancelled mid-run: the session is not pooled
			return nil
		},
	}
	go func() {
		pool.Run(nil, len(specs))
		close(out)
	}()
	return out
}

// resultRows is one block each of the per-flow, per-link and per-class result
// rows of every repetition of a spec, sized from the spec as a session's
// collect sizes them, for Stream to carve each repetition's rows from.
type resultRows struct {
	flows                  []harness.FlowResult
	links                  []harness.LinkResult
	churn                  []harness.ChurnResult
	nFlows, nLinks, nChurn int
}

func newResultRows(spec *Spec) resultRows {
	r := resultRows{nLinks: 1}
	for _, f := range spec.Flows {
		r.nFlows += max(f.Count, 1)
	}
	if spec.Topology != nil {
		r.nLinks = len(spec.Topology.Links)
	}
	if spec.Churn != nil {
		r.nChurn = len(spec.Churn.Classes)
	}
	reps := spec.Reps()
	r.flows = make([]harness.FlowResult, reps*r.nFlows)
	r.links = make([]harness.LinkResult, reps*r.nLinks)
	r.churn = make([]harness.ChurnResult, reps*r.nChurn)
	return r
}

// carve returns repetition rep's share of the blocks, empty, each capped at
// its own rows: collecting into them allocates nothing, and one repetition
// can never write another's.
func (r resultRows) carve(rep int) harness.Result {
	return harness.Result{
		Flows: share(r.flows, r.nFlows, rep),
		Links: share(r.links, r.nLinks, rep),
		Churn: share(r.churn, r.nChurn, rep),
	}
}

// share returns the i-th n-element share of block, empty with capacity n.
func share[T any](block []T, n, i int) []T {
	return block[i*n : i*n : (i+1)*n]
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
