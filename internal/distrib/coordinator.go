package distrib

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/optimizer"
	"repro/internal/stats"
	"repro/internal/supervise"
)

// WorkerHandle is one live worker as the coordinator sees it: a framed
// connection plus lifecycle control. Kill must unblock any pending read on
// the connection (for a spawned process, killing it closes its pipes).
type WorkerHandle interface {
	Conn() *Conn
	Kill()
	Wait() error
}

// Factory starts workers. slot is the stable worker index in [0, Procs);
// attempt counts spawns of that slot (0 for the first, 1 for the first
// respawn, ...), letting chaos factories crash only specific incarnations.
type Factory interface {
	Start(slot, attempt int) (WorkerHandle, error)
}

// Options tunes the coordinator's fail-safe machinery. The defaults match
// internal/campaign's posture: generous watchdogs, a couple of bounded
// retries, fail loudly after that.
type Options struct {
	// Procs is the number of worker slots; must be >= 1.
	Procs int
	// BatchTimeout bounds one batch dispatch wall-clock (watchdog); <= 0
	// means 5 minutes. A worker that blows the watchdog is killed and its
	// batch re-dispatched to a fresh incarnation.
	BatchTimeout time.Duration
	// Retries is how many additional dispatch attempts a batch gets after a
	// worker failure before the run aborts; < 0 means 0, default 2.
	Retries int
	// RetryBackoff is the pause before a re-dispatch (default 100 ms).
	RetryBackoff time.Duration
	// Logf, if non-nil, receives progress and respawn messages.
	Logf func(format string, args ...any)
}

const (
	// handshakeTimeout bounds the wait for a fresh worker's hello frame.
	handshakeTimeout = 30 * time.Second
	// shutdownGrace is how long Close lets a worker exit on its own before
	// killing it.
	shutdownGrace = 2 * time.Second
)

// policy is a batch's supervision, with the defaults documented on Options.
func (o Options) policy() supervise.Policy {
	p := supervise.Policy{Attempts: 3, Backoff: 100 * time.Millisecond, Timeout: 5 * time.Minute}
	if o.Retries != 0 {
		p.Attempts = 1 + max(o.Retries, 0)
	}
	if o.RetryBackoff > 0 {
		p.Backoff = o.RetryBackoff
	}
	if o.BatchTimeout > 0 {
		p.Timeout = o.BatchTimeout
	}
	return p
}

// Stats counts the coordinator's work and its fail-safe activations.
type Stats struct {
	// Batches is the number of batch dispatches that succeeded.
	Batches int64
	// Jobs is the number of jobs those batches carried.
	Jobs int64
	// Respawns counts worker (re)spawns beyond the initial fleet.
	Respawns int64
	// Redispatches counts batch attempts beyond the first.
	Redispatches int64
}

// slot is one worker position. Its handle belongs to one batch attempt at a
// time: the attempt takes it out of the slot (spawning a new incarnation when
// the slot is empty) and puts it back only if the attempt ended with the
// worker healthy and not killed, so an attempt the watchdog abandoned never
// shares a worker with the retry that follows it. handle and attempt are
// guarded by Coordinator.mu.
type slot struct {
	index   int
	attempt int
	handle  WorkerHandle
}

// Coordinator shards evaluation batches across a fleet of persistent
// workers. It implements optimizer.BatchRunner: plug it into
// Remy.Backend/Evaluator.Backend and every pending simulation batch fans
// out over the fleet.
//
// Sharding is by job affinity (the specimen's index in the evaluation's
// specimen set): affinity i always lands on slot i mod Procs. Within an
// optimization round the specimen set is fixed, so each worker re-simulates
// the same specimens for every candidate batch and its per-process warm
// state (pooled engines, reusable sessions) stays hot. Results merge in job
// order, so the evaluator sees exactly what an in-process run would.
type Coordinator struct {
	factory Factory
	opts    Options
	slots   []*slot
	nextID  atomic.Uint64
	closed  bool

	mu    sync.Mutex
	stats Stats
}

// NewCoordinator starts the fleet and completes every worker's handshake.
// On error the already-started workers are killed.
func NewCoordinator(factory Factory, opts Options) (*Coordinator, error) {
	if opts.Procs < 1 {
		return nil, fmt.Errorf("distrib: Procs must be >= 1, got %d", opts.Procs)
	}
	c := &Coordinator{factory: factory, opts: opts}
	for i := 0; i < opts.Procs; i++ {
		c.slots = append(c.slots, &slot{index: i})
	}
	for _, s := range c.slots {
		h, err := c.spawn(context.Background(), s)
		if err != nil {
			c.Close()
			return nil, err
		}
		s.handle = h
	}
	return c, nil
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.opts.Logf != nil {
		c.opts.Logf(format, args...)
	}
}

// Stats returns a snapshot of the coordinator's counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// spawn starts the slot's next incarnation and completes its handshake under
// the handshake watchdog; ctx ending kills it.
func (c *Coordinator) spawn(ctx context.Context, s *slot) (WorkerHandle, error) {
	c.mu.Lock()
	attempt := s.attempt
	s.attempt++
	c.mu.Unlock()
	h, err := c.factory.Start(s.index, attempt)
	if err != nil {
		return nil, fmt.Errorf("distrib: starting worker %d (attempt %d): %w", s.index, attempt, err)
	}
	if attempt > 0 {
		c.mu.Lock()
		c.stats.Respawns++
		c.mu.Unlock()
		c.logf("distrib: worker %d respawned (spawn %d)", s.index, attempt)
	}
	f, _, err := supervise.Run(ctx, supervise.Policy{Timeout: handshakeTimeout}, func(ctx context.Context) (*Frame, error) {
		defer context.AfterFunc(ctx, h.Kill)()
		return h.Conn().ReadFrame()
	})
	switch {
	case err != nil:
		err = fmt.Errorf("distrib: worker %d handshake: %w", s.index, err)
	case f.Type != TypeHello || f.Hello == nil:
		err = fmt.Errorf("distrib: worker %d sent %q before hello", s.index, f.Type)
	case f.Hello.Version != ProtocolVersion:
		err = fmt.Errorf("distrib: worker %d speaks protocol v%d, coordinator v%d — mixed binaries?", s.index, f.Hello.Version, ProtocolVersion)
	}
	if err != nil {
		h.Kill()
		h.Wait()
		return nil, err
	}
	return h, nil
}

// take removes the slot's worker, if it has one, for the caller's sole use.
func (c *Coordinator) take(s *slot) WorkerHandle {
	c.mu.Lock()
	defer c.mu.Unlock()
	h := s.handle
	s.handle = nil
	return h
}

// RunBatch implements optimizer.BatchRunner: shard jobs across the fleet by
// affinity, execute every shard's batch (in parallel across workers, with
// watchdog + respawn + bounded re-dispatch per batch), and merge results in
// job order. Not safe for concurrent calls — the evaluator serializes its
// batches, and worker state is per-slot.
func (c *Coordinator) RunBatch(objective stats.Objective, jobs []optimizer.BatchJob) ([]optimizer.BatchResult, error) {
	if c.closed {
		return nil, fmt.Errorf("distrib: coordinator is closed")
	}
	if len(jobs) == 0 {
		return nil, nil
	}
	n := len(c.slots)
	groups := make([][]int, n)
	for i, j := range jobs {
		w := j.Affinity % n
		if w < 0 {
			w += n
		}
		groups[w] = append(groups[w], i)
	}

	results := make([]optimizer.BatchResult, len(jobs))
	errs := make(chan error, n)
	active := 0
	for w := 0; w < n; w++ {
		if len(groups[w]) == 0 {
			continue
		}
		active++
		go func(s *slot, idxs []int) {
			errs <- c.runWorkerBatch(s, objective, jobs, idxs, results)
		}(c.slots[w], groups[w])
	}
	var firstErr error
	for i := 0; i < active; i++ {
		if err := <-errs; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	c.mu.Lock()
	c.stats.Batches += int64(active)
	c.stats.Jobs += int64(len(jobs))
	c.mu.Unlock()
	return results, nil
}

// runWorkerBatch drives one slot through one batch under the batch policy: a
// worker that fails or blows the watchdog is killed, and the identical jobs
// (same specimens, same seeds — determinism makes the retry safe) go to a
// fresh incarnation, up to the retry bound.
func (c *Coordinator) runWorkerBatch(s *slot, objective stats.Objective, jobs []optimizer.BatchJob, idxs []int, results []optimizer.BatchResult) error {
	batch := make([]optimizer.BatchJob, len(idxs))
	for i, ji := range idxs {
		batch[i] = jobs[ji]
	}
	req, err := encodeJobs(batch)
	if err != nil {
		return err
	}
	req.Objective = objective
	p := c.opts.policy()
	wireResults, attempts, err := supervise.Run(context.Background(), p, func(ctx context.Context) ([]WireResult, error) {
		return c.tryBatch(ctx, s, *req)
	})
	if attempts > 1 {
		c.mu.Lock()
		c.stats.Redispatches += int64(attempts - 1)
		c.mu.Unlock()
		c.logf("distrib: worker %d: batch of %d jobs dispatched %d times", s.index, len(batch), attempts)
	}
	switch {
	case err == nil:
	case attempts < p.Attempts: // a batch error ends the retries early
		return fmt.Errorf("distrib: worker %d: batch failed: %w", s.index, err)
	default:
		return fmt.Errorf("distrib: worker %d: batch failed after %d attempts: %w", s.index, attempts, err)
	}
	for i, ji := range idxs {
		wr := wireResults[i]
		results[ji] = optimizer.BatchResult{Sum: wr.Sum, Flows: wr.Flows, Counts: wr.Counts, Consulted: wr.Consulted, Samples: wr.Samples}
	}
	return nil
}

// tryBatch is one dispatch attempt: it takes the slot's worker (or spawns
// one), sends the batch under a fresh request ID — on its own copy of the
// request, since an abandoned attempt may still hold the last one — and
// awaits the result. ctx ending, the watchdog, kills the worker, which
// unblocks the read.
func (c *Coordinator) tryBatch(ctx context.Context, s *slot, req EvalRequest) ([]WireResult, error) {
	h := c.take(s)
	if h == nil {
		var err error
		if h, err = c.spawn(ctx, s); err != nil {
			return nil, err
		}
	}
	req.ID = c.nextID.Add(1)
	kill := context.AfterFunc(ctx, h.Kill)
	res, err := exchange(h.Conn(), &req)
	if kill() && err == nil {
		c.mu.Lock()
		s.handle = h
		c.mu.Unlock()
	} else {
		h.Kill()
		h.Wait()
	}
	switch {
	case err != nil:
		return nil, err
	case res.Error != "":
		// The worker executed and failed deterministically; retrying the
		// identical batch cannot change the outcome.
		return nil, supervise.Permanent(errors.New(res.Error))
	}
	return res.Results, nil
}

// exchange sends one eval request and reads its answer. Any error means the
// worker can no longer be trusted with another batch.
func exchange(conn *Conn, req *EvalRequest) (*EvalResponse, error) {
	if err := conn.WriteFrame(&Frame{Type: TypeEval, Eval: req}); err != nil {
		return nil, fmt.Errorf("sending batch: %w", err)
	}
	f, err := conn.ReadFrame()
	switch {
	case err != nil:
		return nil, err
	case f.Type != TypeResult || f.Result == nil:
		return nil, fmt.Errorf("expected result frame, got %q", f.Type)
	case f.Result.ID != req.ID:
		return nil, fmt.Errorf("result for batch %d while awaiting %d", f.Result.ID, req.ID)
	case f.Result.Error == "" && len(f.Result.Results) != len(req.Jobs):
		return nil, fmt.Errorf("batch returned %d results for %d jobs", len(f.Result.Results), len(req.Jobs))
	}
	return f.Result, nil
}

// Close shuts the fleet down: a shutdown frame per worker, a short grace
// period to exit cleanly, then a hard kill (a killed worker is reaped in the
// background). Safe to call more than once.
func (c *Coordinator) Close() {
	if c.closed {
		return
	}
	c.closed = true
	var wg sync.WaitGroup
	for _, s := range c.slots {
		h := c.take(s)
		if h == nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			h.Conn().WriteFrame(&Frame{Type: TypeShutdown})
			supervise.Run(context.Background(), supervise.Policy{Timeout: shutdownGrace}, func(ctx context.Context) (struct{}, error) {
				defer context.AfterFunc(ctx, h.Kill)()
				return struct{}{}, h.Wait()
			})
		}()
	}
	wg.Wait()
}
