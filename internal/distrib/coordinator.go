package distrib

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/optimizer"
	"repro/internal/stats"
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
	// HandshakeTimeout bounds the wait for a fresh worker's hello frame
	// (<= 0 means 30 seconds).
	HandshakeTimeout time.Duration
	// Logf, if non-nil, receives progress and respawn messages.
	Logf func(format string, args ...any)
}

func (o Options) batchTimeout() time.Duration {
	if o.BatchTimeout > 0 {
		return o.BatchTimeout
	}
	return 5 * time.Minute
}

func (o Options) retries() int {
	if o.Retries < 0 {
		return 0
	}
	if o.Retries == 0 {
		return 2
	}
	return o.Retries
}

func (o Options) retryBackoff() time.Duration {
	if o.RetryBackoff > 0 {
		return o.RetryBackoff
	}
	return 100 * time.Millisecond
}

func (o Options) handshakeTimeout() time.Duration {
	if o.HandshakeTimeout > 0 {
		return o.HandshakeTimeout
	}
	return 30 * time.Second
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

// slot is one worker position. Its handle is touched only by New/Close and
// by the slot's own dispatch goroutine during a RunBatch call — RunBatch
// itself is not concurrency-safe, matching the evaluator's serialized use.
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
		if err := c.ensureWorker(s); err != nil {
			c.Close()
			return nil, err
		}
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

// ensureWorker spawns the slot's worker if it has none and verifies the
// handshake under a timeout.
func (c *Coordinator) ensureWorker(s *slot) error {
	if s.handle != nil {
		return nil
	}
	h, err := c.factory.Start(s.index, s.attempt)
	if err != nil {
		return fmt.Errorf("distrib: starting worker %d (attempt %d): %w", s.index, s.attempt, err)
	}
	if s.attempt > 0 {
		c.mu.Lock()
		c.stats.Respawns++
		c.mu.Unlock()
		c.logf("distrib: worker %d respawned (spawn %d)", s.index, s.attempt)
	}
	s.attempt++
	f, err := readFrameTimeout(h, c.opts.handshakeTimeout())
	if err != nil {
		h.Kill()
		h.Wait()
		return fmt.Errorf("distrib: worker %d handshake: %w", s.index, err)
	}
	if f.Type != TypeHello || f.Hello == nil {
		h.Kill()
		h.Wait()
		return fmt.Errorf("distrib: worker %d sent %q before hello", s.index, f.Type)
	}
	if f.Hello.Version != ProtocolVersion {
		h.Kill()
		h.Wait()
		return fmt.Errorf("distrib: worker %d speaks protocol v%d, coordinator v%d — mixed binaries?", s.index, f.Hello.Version, ProtocolVersion)
	}
	s.handle = h
	return nil
}

// killWorker hard-stops a slot's worker (if any) and reaps it.
func (c *Coordinator) killWorker(s *slot) {
	if s.handle == nil {
		return
	}
	s.handle.Kill()
	s.handle.Wait()
	s.handle = nil
}

// readFrameTimeout reads one frame from the handle's connection under a
// wall-clock watchdog. On timeout the worker is killed, which unblocks the
// reading goroutine; its late result is dropped via the buffered channel.
func readFrameTimeout(h WorkerHandle, d time.Duration) (*Frame, error) {
	type readResult struct {
		f   *Frame
		err error
	}
	ch := make(chan readResult, 1)
	go func() {
		f, err := h.Conn().ReadFrame()
		ch <- readResult{f, err}
	}()
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.f, r.err
	case <-timer.C:
		h.Kill()
		return nil, fmt.Errorf("distrib: no frame within the %v watchdog; worker killed", d)
	}
}

// errBatch marks batch-level (non-retryable) failures: the worker is
// healthy but the batch itself cannot succeed.
type errBatch struct{ err error }

func (e errBatch) Error() string { return e.err.Error() }

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

// runWorkerBatch drives one slot through one batch: dispatch, await under
// the watchdog, and on worker failure kill + respawn + re-dispatch the
// identical jobs (same specimens, same seeds — determinism makes the retry
// safe) up to the retry bound.
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
	attempts := 1 + c.opts.retries()
	var lastErr error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			c.mu.Lock()
			c.stats.Redispatches++
			c.mu.Unlock()
			c.logf("distrib: worker %d: re-dispatching batch of %d jobs (attempt %d/%d) after: %v", s.index, len(batch), a+1, attempts, lastErr)
			time.Sleep(c.opts.retryBackoff())
		}
		wireResults, err := c.tryBatch(s, req)
		if err == nil {
			for i, ji := range idxs {
				wr := wireResults[i]
				results[ji] = optimizer.BatchResult{Sum: wr.Sum, Flows: wr.Flows, Counts: wr.Counts, Consulted: wr.Consulted, Samples: wr.Samples}
			}
			return nil
		}
		var be errBatch
		if errors.As(err, &be) {
			return fmt.Errorf("distrib: worker %d: batch failed: %w", s.index, be.err)
		}
		lastErr = err
		c.killWorker(s)
	}
	return fmt.Errorf("distrib: worker %d: batch failed after %d attempts: %w", s.index, attempts, lastErr)
}

// tryBatch performs one dispatch attempt against the slot's (possibly
// respawned) worker, under a fresh request ID.
func (c *Coordinator) tryBatch(s *slot, req *EvalRequest) ([]WireResult, error) {
	if err := c.ensureWorker(s); err != nil {
		return nil, err
	}
	id := c.nextID.Add(1)
	req.ID = id
	if err := s.handle.Conn().WriteFrame(&Frame{Type: TypeEval, Eval: req}); err != nil {
		return nil, fmt.Errorf("sending batch: %w", err)
	}
	f, err := readFrameTimeout(s.handle, c.opts.batchTimeout())
	if err != nil {
		return nil, err
	}
	if f.Type != TypeResult || f.Result == nil {
		return nil, fmt.Errorf("expected result frame, got %q", f.Type)
	}
	if f.Result.ID != id {
		return nil, fmt.Errorf("result for batch %d while awaiting %d", f.Result.ID, id)
	}
	if f.Result.Error != "" {
		// The worker executed and failed deterministically; retrying the
		// identical batch cannot change the outcome.
		return nil, errBatch{errors.New(f.Result.Error)}
	}
	if len(f.Result.Results) != len(req.Jobs) {
		return nil, fmt.Errorf("batch returned %d results for %d jobs", len(f.Result.Results), len(req.Jobs))
	}
	return f.Result.Results, nil
}

// Close shuts the fleet down: a shutdown frame per worker, a short grace
// period to exit cleanly, then a hard kill. Safe to call more than once.
func (c *Coordinator) Close() {
	if c.closed {
		return
	}
	c.closed = true
	var wg sync.WaitGroup
	for _, s := range c.slots {
		if s.handle == nil {
			continue
		}
		wg.Add(1)
		go func(s *slot) {
			defer wg.Done()
			h := s.handle
			s.handle = nil
			h.Conn().WriteFrame(&Frame{Type: TypeShutdown})
			done := make(chan struct{})
			go func() { h.Wait(); close(done) }()
			timer := time.NewTimer(2 * time.Second)
			defer timer.Stop()
			select {
			case <-done:
			case <-timer.C:
				h.Kill()
				<-done
			}
		}(s)
	}
	wg.Wait()
}
