package scenario

import (
	"context"
	"runtime"
	"sync"

	"repro/internal/supervise"
)

// PoolSize is how many tasks a pool asked for workers runs at once: workers
// itself when positive, otherwise runtime.GOMAXPROCS(0), every core the Go
// scheduler may use. It is the one default of every parallel caller.
func PoolSize(workers int) int {
	if workers > 0 {
		return workers
	}
	return runtime.GOMAXPROCS(0)
}

// Pool runs groups of indexed tasks on warm workers. It is the one executor
// of independent simulations: Runner.Stream's (spec, repetition) pairs, a
// campaign's (cell, repetition) pairs and the optimizer's (world, job) pairs
// all run on it. A task's result is a function of its spec and index alone —
// a warm session's run gives what a just-built one's would — so which worker
// runs which task changes no result.
//
// Tasks start in (group, index) order: a worker takes the first waiting task
// of the lowest group that has one, opening the next group when none has, so
// no worker idles while any task waits, however uneven the groups.
//
// Workers come from a process-wide free list and go back to it when the run
// ends, sessions, worlds and Local state intact, so the next run starts warm:
// a spec a worker has run must not change in place afterwards, Seed apart.
// Results are kept too: once a group's Done has returned, its results go to
// a later group's attempt to be written over, so a task can reuse the
// capacity its out holds. A run allocates nothing per task.
type Pool[R any] struct {
	// Registry resolves spec names; nil means Default().
	Registry *Registry
	// Workers bounds concurrent tasks; <= 0 means PoolSize's default.
	Workers int
	// Policy supervises each group with internal/supervise: an attempt runs
	// all of the group's tasks, an attempt that fails (a task's error, or
	// Policy.Timeout's watchdog) is retried whole, and a timed-out attempt's
	// running tasks are abandoned: each of their workers is replaced at once,
	// so a wedged simulation takes no worker from the run. The zero Policy is
	// one attempt without a watchdog, run with no goroutine of its own.
	Policy supervise.Policy
	// Open returns group g's task count. It is called once per group, in
	// group order, just before the group's first task can start; an error
	// fails the group without running it.
	Open func(g int) (int, error)
	// Task runs task i of group g on w and writes its result to out; an error
	// fails the group's attempt. Tasks of one group run concurrently. out
	// holds what a task of an earlier group left there, or the zero R: Task
	// overwrites all of it, and may reuse the memory it refers to.
	Task func(w *Worker, g, i int, out *R) error
	// Done, if non-nil, receives each group's outcome: its results by task
	// index when an attempt succeeded, else nil and the last error; attempts
	// is how many were made. Calls are serialized, in completion order, and
	// none is made once Run has returned. A Done error ends the run with it.
	// The results are valid only during the call: when Done returns they go
	// to a later group's tasks, which write over them, so Done copies what
	// it keeps.
	Done func(g int, results []R, attempts int, err error) error
}

// Run executes groups 0..n-1 and returns nil when every group is done, Done's
// error, or context.Canceled once stop (if non-nil) is closed. A run that
// ends early starts no further task and abandons the running ones, whose
// workers are dropped when (if) their tasks return: Run does not wait for
// them.
func (p Pool[R]) Run(stop <-chan struct{}, n int) error {
	if n == 0 {
		return nil
	}
	workers := PoolSize(p.Workers)
	r := &poolRun[R]{
		Pool:       p,
		stop:       stop,
		reg:        Runner{Registry: p.Registry}.registry(),
		supervised: p.Policy.Attempts > 1 || p.Policy.Timeout > 0,
		groups:     make([]poolGroup[R], n),
	}
	r.wake.L = &r.mu
	r.spare = r.spareBuf[:0]
	if r.supervised || stop != nil {
		r.ctx, r.cancel = context.WithCancel(context.Background())
		defer r.cancel()
	}
	if stop != nil {
		go func() {
			select {
			case <-stop:
				r.end(context.Canceled)
			case <-r.ctx.Done():
			}
		}()
	}
	r.mu.Lock()
	block := make([]poolSlot, workers)
	for k := range block {
		r.spawn(&block[k])
	}
	for r.slots != nil {
		r.wake.Wait()
	}
	err := r.err
	r.mu.Unlock()
	r.doneMu.Lock() // a Done call under way when the run ended completes first
	r.doneMu.Unlock()
	return err
}

// poolRun is one Run's state; mu guards everything after it.
type poolRun[R any] struct {
	Pool[R]
	// ctx, made when the run is supervised or stoppable, ends with the run.
	ctx        context.Context
	cancel     context.CancelFunc
	stop       <-chan struct{}
	reg        *Registry
	supervised bool

	mu   sync.Mutex
	wake sync.Cond // a task was queued, a worker left, a group settled
	// groups holds each group's current attempt and opened counts the groups
	// opened. Below low, the cursor, no group has a task waiting to start.
	groups      []poolGroup[R]
	opened, low int
	// slots lists the live workers' places; an abandoned one leaves it.
	slots   *poolSlot
	settled int   // groups whose outcome is final
	err     error // why the run ended early; nil while it runs
	// spare holds the results of groups whose Done has returned, for later
	// attempts. An attempt with an abandoned task never gets here: the task
	// may still write into its out. A run keeps about one per worker at a
	// time, so spareBuf backs spare without an allocation of its own.
	spare    [][]R
	spareBuf [4][]R

	doneMu sync.Mutex // serializes Done and fences it off from Run's return
}

// poolGroup is a group's current attempt: n tasks, next the first not yet
// started. over is set once it settled or was abandoned; tries numbers it,
// and end (supervised groups only) closes when it settles.
type poolGroup[R any] struct {
	n, next, running, ok int
	err                  error
	results              []R
	over                 bool
	tries                int
	end                  chan struct{}
}

// poolSlot is one worker's place in the run. g is the group of the task it is
// running (-1 between tasks).
type poolSlot struct {
	w         *Worker
	g         int
	abandoned bool
	next      *poolSlot // in the run's list of live slots
}

// spawn starts slot s. r.mu is held.
func (r *poolRun[R]) spawn(s *poolSlot) {
	s.g, s.next = -1, r.slots
	r.slots = s
	go r.slot(s)
}

// slot is one worker's loop: take a task, run it, account for it.
func (r *poolRun[R]) slot(s *poolSlot) {
	r.mu.Lock()
	for r.err == nil && r.settled < len(r.groups) {
		g, i := r.take()
		if g < 0 {
			r.wake.Wait()
			continue
		}
		gr := &r.groups[g]
		out := &gr.results[i]
		s.g = g
		r.mu.Unlock()
		if s.w == nil {
			s.w = acquireWorker(r.reg)
		}
		err := r.Task(s.w, g, i, out)
		r.mu.Lock()
		select {
		case <-r.stop:
			r.endLocked(context.Canceled) // stopped while the task ran
		default:
		}
		if s.abandoned {
			r.mu.Unlock() // the task may have been cut short: drop its worker
			return
		}
		s.g = -1
		gr.running--
		switch {
		case err == nil:
			gr.ok++
		case gr.err == nil:
			gr.err, gr.next = err, gr.n // start no more of this attempt's tasks
		}
		if gr.ok == gr.n || (gr.err != nil && gr.running == 0) {
			r.settle(g)
		}
	}
	if s.w != nil {
		releaseWorker(s.w) // before Run can return: the next run finds it
	}
	r.drop(s)
	r.mu.Unlock()
}

// take returns the first waiting task of the lowest group that has one,
// opening groups as needed, or -1 when there is none now. r.mu is held.
func (r *poolRun[R]) take() (g, i int) {
	for r.low < len(r.groups) {
		if r.low == r.opened {
			if r.err != nil {
				break
			}
			r.opened++
			r.open(r.opened - 1)
			continue // open may have let other slots move the cursor
		}
		if gr := &r.groups[r.low]; !gr.over && gr.next < gr.n {
			gr.running++
			gr.next++
			return r.low, gr.next - 1
		}
		r.low++
	}
	return -1, -1
}

// open opens group g and queues its first attempt; a supervised group gets a
// supervisor for its attempts. r.mu is held, and released while an Open
// error goes to Done.
func (r *poolRun[R]) open(g int) {
	n, err := r.Open(g)
	if err != nil {
		r.mu.Unlock()
		r.finish(g, nil, 1, err)
		r.mu.Lock()
		return
	}
	r.queueAttempt(g, n)
	if r.supervised {
		go r.supervise(g, n)
	}
}

// queueAttempt makes group g's next attempt of n tasks and queues it. r.mu
// is held.
func (r *poolRun[R]) queueAttempt(g, n int) {
	gr := &r.groups[g]
	*gr = poolGroup[R]{n: n, results: r.results(n), tries: gr.tries + 1}
	if r.supervised {
		gr.end = make(chan struct{})
	}
	if n == 0 {
		r.settle(g)
		return
	}
	r.low = min(r.low, g)
	r.wake.Broadcast()
}

// results returns n results for an attempt: the spare ones returned last,
// extended when they are too few, or new ones. r.mu is held.
func (r *poolRun[R]) results(n int) []R {
	k := len(r.spare)
	if k == 0 {
		return make([]R, n)
	}
	res := r.spare[k-1]
	r.spare[k-1] = nil
	r.spare = r.spare[:k-1]
	res = res[:cap(res)]
	if len(res) < n {
		res = append(res, make([]R, n-len(res))...)
	}
	return res[:n]
}

// settle ends group g's attempt: a supervised group's supervisor takes it
// from there, and any other group is finished here. r.mu is held, and
// released while Done runs.
func (r *poolRun[R]) settle(g int) {
	gr := &r.groups[g]
	gr.over = true
	if r.supervised {
		close(gr.end)
		return
	}
	results, err := gr.results, gr.err
	if err != nil {
		results = nil
	}
	r.mu.Unlock()
	r.finish(g, results, 1, err)
	r.mu.Lock()
}

// supervise runs group g's attempts, the first already queued, under the
// Policy's watchdog and retries.
func (r *poolRun[R]) supervise(g, n int) {
	tries := 0
	results, attempts, err := supervise.Run(r.ctx, r.Policy, func(actx context.Context) ([]R, error) {
		r.mu.Lock()
		defer r.mu.Unlock()
		gr := &r.groups[g]
		if tries++; tries > 1 {
			if !gr.over {
				r.abandon(g) // the last attempt timed out; its waiter is late
			}
			r.queueAttempt(g, n)
		}
		try, end := gr.tries, gr.end
		r.mu.Unlock()
		select {
		case <-end:
		case <-actx.Done():
		}
		r.mu.Lock()
		switch {
		case gr.tries != try:
			return nil, actx.Err() // a later attempt took over
		case !gr.over:
			r.abandon(g)
			return nil, actx.Err()
		case gr.err != nil:
			return nil, gr.err
		}
		return gr.results, nil
	})
	r.finish(g, results, attempts, err)
}

// abandon gives up the running tasks of group g's attempt, or of every group
// when g is -1: their slots leave the run, to drop their workers when (if)
// the tasks return, and while the run goes on each is replaced. r.mu is held.
func (r *poolRun[R]) abandon(g int) {
	if g >= 0 {
		r.groups[g].over = true
	}
	for s := r.slots; s != nil; s = s.next {
		if s.g >= 0 && (g < 0 || s.g == g) {
			s.abandoned = true
			r.drop(s)
			if r.err == nil {
				r.spawn(new(poolSlot))
			}
		}
	}
}

// drop removes s from the live slots. r.mu is held.
func (r *poolRun[R]) drop(s *poolSlot) {
	for p := &r.slots; *p != nil; p = &(*p).next {
		if *p == s {
			*p = s.next
			break
		}
	}
	r.wake.Broadcast()
}

// finish hands group g's outcome to Done, unless the run has ended, counts
// the group settled and keeps its results, which only a settled attempt whose
// every task returned has, for a later attempt. r.mu is not held.
func (r *poolRun[R]) finish(g int, results []R, attempts int, err error) {
	r.doneMu.Lock()
	r.mu.Lock()
	live := r.err == nil
	r.mu.Unlock()
	if live && r.Done != nil {
		if err := r.Done(g, results, attempts, err); err != nil {
			r.end(err)
		}
	}
	r.doneMu.Unlock()
	r.mu.Lock()
	r.settled++
	if results != nil {
		r.spare = append(r.spare, results)
	}
	r.wake.Broadcast()
	r.mu.Unlock()
}

// end ends the run early with err: nothing more starts, and every running
// task is abandoned.
func (r *poolRun[R]) end(err error) {
	r.mu.Lock()
	r.endLocked(err)
	r.mu.Unlock()
}

func (r *poolRun[R]) endLocked(err error) {
	if r.err == nil {
		r.err = err
		if r.cancel != nil {
			r.cancel()
		}
		r.abandon(-1)
		r.wake.Broadcast()
	}
}

// idleWorkers keeps the workers of finished runs, warm sessions and Local
// state included, for the next run. A plain mutex-guarded free list is used
// instead of sync.Pool deliberately: sync.Pool may drop entries at any GC,
// which would silently reintroduce cold-start allocations mid-campaign (and
// flake the allocation regression tests that pin the warm path). It never
// holds more workers than the process has run at once.
var idleWorkers struct {
	mu   sync.Mutex
	free []*Worker
}

// acquireWorker returns the idle worker released last, or a new one when
// there is none, resolving names against reg. A worker keeps the world of
// the spec it ran last, which its pointer keeps alive, unless reg is another
// registry than the one that built it.
func acquireWorker(reg *Registry) *Worker {
	idleWorkers.mu.Lock()
	defer idleWorkers.mu.Unlock()
	n := len(idleWorkers.free)
	if n == 0 {
		return &Worker{reg: reg}
	}
	w := idleWorkers.free[n-1]
	idleWorkers.free[n-1] = nil
	idleWorkers.free = idleWorkers.free[:n-1]
	if w.reg != reg {
		w.reg, w.spec = reg, nil
	}
	return w
}

func releaseWorker(w *Worker) {
	idleWorkers.mu.Lock()
	idleWorkers.free = append(idleWorkers.free, w)
	idleWorkers.mu.Unlock()
}
