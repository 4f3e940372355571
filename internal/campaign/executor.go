package campaign

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/scenario"
	"repro/internal/supervise"
)

// ErrInterrupted reports a run stopped by its Stop channel. The manifest
// written so far is valid; re-running with the same options resumes from it.
var ErrInterrupted = errors.New("campaign: interrupted (resume from the manifest)")

// Executor runs a campaign's cells over scenario.Runner. Parallelism has two
// levels: Workers cells run concurrently, each worker taking the next pending
// cell, and each cell's repetitions run under an inner scenario.Runner pool
// of InnerWorkers. Neither knob affects any number in the output — only
// wall-clock time.
type Executor struct {
	// Registry resolves scheme/queue/link names; nil means scenario.Default().
	Registry *scenario.Registry
	// Workers bounds concurrently running cells; <= 0 means
	// scenario.DefaultWorkers().
	Workers int
	// InnerWorkers is each cell's repetition pool; <= 0 means 1 (the outer
	// pool already saturates the cores on wide grids).
	InnerWorkers int
	// Logf, if non-nil, receives progress messages.
	Logf func(format string, args ...any)
	// OnCell, if non-nil, observes every freshly executed cell with its full
	// per-repetition results, in repetition order, before they are discarded.
	// Calls are serialized but cell order follows completion, which is
	// scheduling-dependent. Resumed (manifest-restored) cells are NOT
	// replayed — their per-rep results no longer exist. Quarantined (failed)
	// cells are not observed either: they have no results.
	OnCell func(cell Cell, results []scenario.Result)
	// CellTimeout, when positive, bounds each cell attempt's wall-clock time.
	// An attempt that exceeds it is cancelled and — because a wedged
	// simulation cannot be forcibly killed — abandoned: its goroutine is left
	// to die when (if) it returns, and the cell counts as failed for that
	// attempt.
	CellTimeout time.Duration
	// Retries is how many additional attempts a failed cell gets before it is
	// quarantined. Every attempt runs the identical spec and seed — cells are
	// deterministic units, so retries only help against environmental
	// failures (the chaos tests inject nondeterministic ones deliberately).
	Retries int
	// RetryBackoff is the pause before each retry (default 100 ms).
	RetryBackoff time.Duration
}

// RunOptions selects the slice of the campaign one process executes and how
// it checkpoints.
type RunOptions struct {
	// Shard/NumShards split the grid across processes: this process runs the
	// cells whose index ≡ Shard (mod NumShards). NumShards <= 1 means the
	// whole campaign.
	Shard, NumShards int
	// ManifestPath, when non-empty, appends a checkpoint line per completed
	// cell; if the file already exists its cells are verified against the
	// sweep and skipped (resume).
	ManifestPath string
	// Stop, when non-nil and closed, interrupts the run at the next clean
	// point: no new cells or repetitions start, in-flight work is discarded,
	// and Run returns ErrInterrupted with the manifest intact.
	Stop <-chan struct{}
}

func (e Executor) workers() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return scenario.DefaultWorkers()
}

// policy is a cell's supervision: 1+Retries attempts under the CellTimeout
// watchdog, RetryBackoff (default 100 ms) apart.
func (e Executor) policy() supervise.Policy {
	p := supervise.Policy{Attempts: 1 + e.Retries, Backoff: e.RetryBackoff, Timeout: e.CellTimeout}
	if p.Backoff <= 0 {
		p.Backoff = 100 * time.Millisecond
	}
	return p
}

func (e Executor) logf(format string, args ...any) {
	if e.Logf != nil {
		e.Logf(format, args...)
	}
}

// Run executes this process's share of the campaign: every shard cell not
// already checkpointed in the manifest. It returns the shard's complete
// record set — resumed cells plus freshly executed ones — sorted by cell
// index. Numbers are independent of Workers, InnerWorkers and which worker
// runs which cell because each cell is a deterministic unit: its seed is
// fixed by the sweep (see Cell.Seed), its repetitions fold in repetition
// order, and nothing crosses cell boundaries.
func (e Executor) Run(sweep SweepSpec, opts RunOptions) ([]CellRecord, error) {
	if err := sweep.Validate(); err != nil {
		return nil, err
	}
	if opts.NumShards > 1 && (opts.Shard < 0 || opts.Shard >= opts.NumShards) {
		return nil, fmt.Errorf("campaign: shard %d out of range [0,%d)", opts.Shard, opts.NumShards)
	}

	// Resume: load the manifest (if any) and index its cells by ID.
	done := make(map[string]CellRecord)
	var records []CellRecord
	if opts.ManifestPath != "" {
		if _, err := os.Stat(opts.ManifestPath); err == nil {
			recs, err := ReadManifest(opts.ManifestPath)
			if err != nil {
				return nil, err
			}
			for _, rec := range recs {
				if rec.Campaign != sweep.Name {
					return nil, fmt.Errorf("campaign: manifest %s belongs to campaign %q, not %q", opts.ManifestPath, rec.Campaign, sweep.Name)
				}
				if prev, dup := done[rec.ID]; dup {
					if prev.Seed != rec.Seed {
						return nil, fmt.Errorf("campaign: manifest %s has conflicting records for cell %q", opts.ManifestPath, rec.ID)
					}
					continue
				}
				done[rec.ID] = rec
			}
		}
	}

	// Enumerate this shard's cells (metadata only — no specs are
	// materialized here) and split out what still needs to run. Resumed
	// records are re-verified against the sweep: a manifest from an edited
	// config must fail loudly, not silently misreport. Each cell's ID is
	// rendered into one reused buffer and looked up as bytes.
	x := newIdentity(&sweep)
	coords := make([]Coord, len(sweep.Axes))
	var id []byte
	var pending []int
	shardCells := 0
	for i := 0; i < sweep.NumCells(); i++ {
		if opts.NumShards > 1 && i%opts.NumShards != opts.Shard {
			continue
		}
		shardCells++
		if len(done) > 0 {
			id = x.render(id[:0], coords, i)
			if rec, ok := done[string(id)]; ok {
				if seed := x.seed(id, i); rec.Seed != seed || rec.Index != i {
					return nil, fmt.Errorf("campaign: manifest cell %q (index %d, seed %d) does not match the sweep (index %d, seed %d); the config changed since the checkpoint",
						rec.ID, rec.Index, rec.Seed, i, seed)
				}
				records = append(records, rec)
				continue
			}
		}
		pending = append(pending, i)
	}
	e.logf("campaign: %q shard %d/%d: %d cells (%d checkpointed, %d to run)",
		sweep.Name, opts.Shard, max(1, opts.NumShards), shardCells, len(records), len(pending))

	if len(pending) > 0 {
		fresh, err := e.runPending(x, pending, opts)
		records = append(records, fresh...)
		if err != nil {
			return records, err
		}
	}
	sort.Slice(records, func(i, j int) bool { return records[i].Index < records[j].Index })
	return records, nil
}

// runPending executes the given cell indices on Workers goroutines, each
// taking the next pending cell from one shared cursor. A cell's session comes
// from scenario's process-wide pool whichever worker runs it, so no worker
// needs a run of cells of its own.
func (e Executor) runPending(x *identity, pending []int, opts RunOptions) ([]CellRecord, error) {
	var manifest *os.File
	if opts.ManifestPath != "" {
		f, err := os.OpenFile(opts.ManifestPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("campaign: %w", err)
		}
		defer f.Close()
		manifest = f
	}

	// ctx ends on the first error or when the caller's Stop fires.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if opts.Stop != nil {
		go func() {
			select {
			case <-opts.Stop:
				cancel()
			case <-ctx.Done():
			}
		}()
	}

	type cellDone struct {
		cell    Cell
		rec     CellRecord
		results []scenario.Result
		err     error
	}
	out := make(chan cellDone)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(e.workers(), len(pending)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				n := int(next.Add(1)) - 1
				if n >= len(pending) {
					return
				}
				var d cellDone
				d.cell, d.rec, d.results, d.err = e.runCell(ctx, x, pending[n])
				select {
				case out <- d:
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	go func() { wg.Wait(); close(out) }()

	// Collector: checkpoint each completed cell, hand results to OnCell,
	// accumulate records. Single goroutine — manifest writes and OnCell
	// calls are naturally serialized.
	var fresh []CellRecord
	var firstErr error
	for d := range out {
		if d.err == nil && manifest != nil {
			d.err = AppendRecord(manifest, d.rec)
		}
		if d.err != nil {
			if firstErr == nil && !errors.Is(d.err, ErrInterrupted) {
				firstErr = d.err
			}
			cancel()
			continue
		}
		if e.OnCell != nil && d.rec.Failure == "" {
			e.OnCell(d.cell, d.results)
		}
		fresh = append(fresh, d.rec)
		if d.rec.Failure != "" {
			e.logf("campaign: cell %q quarantined after %d attempt(s): %s", d.rec.ID, d.rec.Attempts, d.rec.Failure)
		} else {
			e.logf("campaign: cell %q done (%d reps, %d flows completed)", d.rec.ID, d.rec.Aggregate.Reps, d.rec.Aggregate.FlowsCompleted)
		}
	}
	if firstErr != nil {
		return fresh, firstErr
	}
	if ctx.Err() != nil {
		return fresh, ErrInterrupted
	}
	return fresh, nil
}

// runCell materializes and executes one cell, folding its repetitions — in
// repetition order — into the O(1) aggregate. Each attempt is one stream of
// the cell's repetitions on an InnerWorkers runner, supervised: a watchdog
// timeout or Stop ends the attempt's context, which cancels the stream, and
// the attempt is abandoned, since a repetition wedged inside a single sim run
// never observes cancellation. A cell whose attempts all fail (panic, error,
// watchdog timeout) does not abort the campaign: it comes back as a
// quarantine record (Failure set, zero aggregate) that is checkpointed like
// any other, so a resume skips the known-bad cell. Only interruption and
// infrastructure errors (a broken sweep) propagate as errors.
func (e Executor) runCell(ctx context.Context, x *identity, idx int) (Cell, CellRecord, []scenario.Result, error) {
	sweep := x.sweep
	cell, err := x.cell(idx)
	if err != nil {
		return cell, CellRecord{}, nil, err
	}
	spec, err := cell.Spec()
	if err != nil {
		// Materialization is deterministic; retrying cannot help.
		return cell, failedRecordFor(sweep.Name, cell, "", err, 1), nil, nil
	}
	runner := scenario.Runner{Registry: e.Registry, Workers: max(1, e.InnerWorkers)}
	specs := []scenario.Spec{spec}
	results, attempts, err := supervise.Run(ctx, e.policy(), func(ctx context.Context) ([]scenario.Result, error) {
		results := make([]scenario.Result, spec.Reps())
		got := 0
		for res := range runner.Stream(ctx.Done(), specs) {
			if res.Err != nil {
				return nil, fmt.Errorf("campaign: cell %q: %w", cell.ID, res.Err)
			}
			results[res.Rep] = res
			got++
		}
		if got < len(results) {
			return nil, ctx.Err()
		}
		return results, nil
	})
	switch {
	case err == nil:
		agg := newCellAggregator()
		for _, res := range results {
			agg.fold(res)
		}
		rec := recordFor(sweep.Name, cell, spec.Name, agg.finalize())
		if attempts > 1 {
			rec.Attempts = attempts
		}
		return cell, rec, results, nil
	case ctx.Err() != nil:
		return cell, CellRecord{}, nil, ErrInterrupted
	case errors.As(err, new(supervise.TimeoutError)):
		err = fmt.Errorf("campaign: cell %q exceeded the %v cell timeout; attempt abandoned", cell.ID, e.CellTimeout)
	}
	return cell, failedRecordFor(sweep.Name, cell, spec.Name, err, attempts), nil, nil
}
