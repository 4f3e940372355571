package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/scenario"
	"repro/internal/supervise"
)

// ErrInterrupted reports a run stopped by its Stop channel. The manifest
// written so far is valid; re-running with the same options resumes from it.
var ErrInterrupted = errors.New("campaign: interrupted (resume from the manifest)")

// Executor runs a campaign's cells on one scenario.Pool of Workers: every
// (cell, repetition) pair is a task, cells open in index order, and a worker
// that finishes its cell helps with the repetitions of the others, so no
// worker idles while any repetition of the run is pending, however uneven
// the cells. Workers affects no number in the output, only wall-clock time.
type Executor struct {
	// Registry resolves scheme/queue/link names; nil means scenario.Default().
	Registry *scenario.Registry
	// Workers bounds concurrently running repetitions; <= 0 means
	// runtime.GOMAXPROCS(0) (scenario.PoolSize).
	Workers int
	// Logf, if non-nil, receives progress messages.
	Logf func(format string, args ...any)
	// OnCell, if non-nil, observes every freshly executed cell with its full
	// per-repetition results, in repetition order. The results are valid
	// only during the call: later cells' repetitions are written over them,
	// so OnCell copies what it keeps. Calls are serialized but cell order
	// follows completion, which is scheduling-dependent. Resumed
	// (manifest-restored) cells are NOT replayed — their per-rep results no
	// longer exist. Quarantined (failed) cells are not observed either: they
	// have no results.
	OnCell func(cell Cell, results []scenario.Result)
	// CellTimeout, when positive, bounds each cell attempt's wall-clock time.
	// An attempt that exceeds it is cancelled and — because a wedged
	// simulation cannot be forcibly killed — abandoned: each repetition still
	// running is left to die when (if) it returns, its worker replaced in the
	// pool, and the cell counts as failed for that attempt.
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
// index. Numbers are independent of Workers and of which worker runs which
// repetition because each cell is a deterministic unit: its seed is
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

// runPending executes the given cell indices as one scenario.Pool run: a
// group per cell, a task per repetition, cells opened in index order and
// each cell's attempts supervised by the pool. A cell's repetitions fold, in
// repetition order, into the O(1) aggregate. What a cell leaves behind is
// only its record: the run keeps one aggregator and one manifest encoder for
// every cell, carves the cells' coordinates from one block, and the pool
// hands each cell's results, rows and all, to a later cell. A cell whose
// attempts all fail (panic, error, watchdog timeout) does not abort the
// campaign: it comes back as a quarantine record (Failure set, zero
// aggregate) that is checkpointed like any other, so a resume skips the
// known-bad cell. Only interruption and infrastructure errors (an unwritable
// manifest) end the run.
func (e Executor) runPending(x *identity, pending []int, opts RunOptions) ([]CellRecord, error) {
	var manifest *json.Encoder
	if opts.ManifestPath != "" {
		f, err := os.OpenFile(opts.ManifestPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("campaign: %w", err)
		}
		defer f.Close()
		manifest = json.NewEncoder(f)
	}

	name := x.sweep.Name
	axes := len(x.sweep.Axes)
	coords := make([]Coord, len(pending)*axes)
	cells := make([]Cell, len(pending))
	specs := make([]scenario.Spec, len(pending))
	fresh := make([]CellRecord, 0, len(pending))
	agg := newCellAggregator()
	pool := scenario.Pool[scenario.Result]{
		Registry: e.Registry,
		Workers:  e.Workers,
		Policy:   e.policy(),
		Open: func(g int) (int, error) {
			cell, err := x.cell(pending[g], coords[g*axes:(g+1)*axes])
			if err != nil {
				return 0, err
			}
			cells[g] = cell
			// Materialization is deterministic; a failure fails the cell
			// without an attempt.
			specs[g], err = cell.Spec()
			return specs[g].Reps(), err
		},
		Task: func(w *scenario.Worker, g, rep int, out *scenario.Result) error {
			w.RunInto(&specs[g], rep, out)
			if out.Err != nil {
				return fmt.Errorf("campaign: cell %q: %w", cells[g].ID, out.Err)
			}
			return nil
		},
		Done: func(g int, results []scenario.Result, attempts int, err error) error {
			cell := cells[g]
			var rec CellRecord
			switch {
			case cell.sweep == nil:
				return err // the cell could not be enumerated
			case err == nil:
				agg.reset()
				for _, res := range results {
					agg.fold(res)
				}
				rec = recordFor(name, cell, specs[g].Name, agg.finalize())
				if attempts > 1 {
					rec.Attempts = attempts
				}
			default:
				if errors.As(err, new(supervise.TimeoutError)) {
					err = fmt.Errorf("campaign: cell %q exceeded the %v cell timeout; attempt abandoned", cell.ID, e.CellTimeout)
				}
				rec = failedRecordFor(name, cell, specs[g].Name, err, attempts)
			}
			if err == nil && attempts == 1 {
				// Drop the spec: every repetition that read it has
				// returned. A timed-out attempt's may still be reading it.
				specs[g] = scenario.Spec{}
			}
			fresh = append(fresh, rec)
			if manifest != nil {
				if err := appendRecord(manifest, &fresh[len(fresh)-1]); err != nil {
					fresh = fresh[:len(fresh)-1]
					return err
				}
			}
			// Logf is checked here, not only in logf: boxing the arguments
			// would allocate even for a nil Logf.
			if rec.Failure != "" {
				if e.Logf != nil {
					e.Logf("campaign: cell %q quarantined after %d attempt(s): %s", rec.ID, rec.Attempts, rec.Failure)
				}
				return nil
			}
			if e.OnCell != nil {
				e.OnCell(cell, results)
			}
			if e.Logf != nil {
				e.Logf("campaign: cell %q done (%d reps, %d flows completed)", rec.ID, rec.Aggregate.Reps, rec.Aggregate.FlowsCompleted)
			}
			return nil
		},
	}
	err := pool.Run(opts.Stop, len(pending))
	if errors.Is(err, context.Canceled) {
		err = ErrInterrupted
	}
	return fresh, err
}
