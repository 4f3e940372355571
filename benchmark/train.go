package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/optimizer"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// trainWorkers is the simulation parallelism of both training workloads: an
// in-process pool of two, or two single-threaded pipe workers.
const trainWorkers = 2

// localBackend is the in-process execution path behind the BatchRunner seam;
// it is exactly what the evaluator does when no backend is configured.
type localBackend struct{}

func (localBackend) RunBatch(obj stats.Objective, jobs []optimizer.BatchJob) ([]optimizer.BatchResult, error) {
	return optimizer.RunBatchLocal(obj, trainWorkers, jobs)
}

// batchTap sits on the BatchRunner seam. It counts what crosses it — jobs
// and, through the per-rule use counts, acknowledged packets — and times each
// batch; with a tracer it also records the RunBatch spans under the current
// round.
type batchTap struct {
	inner optimizer.BatchRunner
	tr    *tracer
	// round is the open round span; frame spans hang under batch.
	round int
	batch *atomic.Int64

	jobs    []float64 // jobs per batch
	acks    int64
	batchNs int64
}

func (b *batchTap) RunBatch(obj stats.Objective, jobs []optimizer.BatchJob) ([]optimizer.BatchResult, error) {
	id := b.tr.begin("RunBatch", b.round)
	if b.batch != nil {
		b.batch.Store(int64(id))
	}
	start := time.Now()
	results, err := b.inner.RunBatch(obj, jobs)
	b.batchNs += time.Since(start).Nanoseconds()
	b.tr.end(id)
	b.jobs = append(b.jobs, float64(len(jobs)))
	for _, r := range results {
		for _, c := range r.Counts {
			b.acks += c
		}
	}
	return results, err
}

// wire is the byte and span accounting of the coordinator's side of every
// pipe. The benchmark implements distrib.Factory itself so it can wrap the
// pipe ends; nothing inside distrib is touched.
type wire struct {
	reqBytes  atomic.Int64 // coordinator → workers
	respBytes atomic.Int64 // workers → coordinator
	tr        *tracer
	batch     atomic.Int64 // span id of the batch in flight (-1 when none)
}

type countingWriter struct {
	w    io.Writer
	wire *wire
}

func (c countingWriter) Write(p []byte) (int, error) {
	id := c.wire.tr.begin("frame.write", int(c.wire.batch.Load()))
	n, err := c.w.Write(p)
	c.wire.tr.end(id)
	c.wire.reqBytes.Add(int64(n))
	return n, err
}

type countingReader struct {
	r    io.Reader
	wire *wire
}

func (c countingReader) Read(p []byte) (int, error) {
	id := c.wire.tr.begin("frame.read", int(c.wire.batch.Load()))
	n, err := c.r.Read(p)
	c.wire.tr.end(id)
	c.wire.respBytes.Add(int64(n))
	return n, err
}

// pipeWorker is one distrib.Serve goroutine behind a pair of io.Pipes.
type pipeWorker struct {
	conn    *distrib.Conn
	closers []io.Closer
	done    chan struct{}
	err     error
}

func (w *pipeWorker) Conn() *distrib.Conn { return w.conn }
func (w *pipeWorker) Wait() error         { <-w.done; return w.err }
func (w *pipeWorker) Kill() {
	for _, c := range w.closers {
		c.Close()
	}
}

// pipeFactory starts in-process workers: the full protocol with no
// process-spawn noise.
type pipeFactory struct{ wire *wire }

func (f pipeFactory) Start(slot, attempt int) (distrib.WorkerHandle, error) {
	toWorkerR, toWorkerW := io.Pipe()
	fromWorkerR, fromWorkerW := io.Pipe()
	w := &pipeWorker{
		conn:    distrib.NewConn(countingReader{fromWorkerR, f.wire}, countingWriter{toWorkerW, f.wire}),
		closers: []io.Closer{toWorkerR, toWorkerW, fromWorkerR, fromWorkerW},
		done:    make(chan struct{}),
	}
	go func() {
		defer close(w.done)
		w.err = distrib.Serve(toWorkerR, fromWorkerW, distrib.ServeOptions{Parallel: 1})
		fromWorkerW.Close()
	}()
	return w, nil
}

// trainInstance is train_rounds and train_distrib: the same fixed training,
// differing only in the backend behind the BatchRunner seam.
type trainInstance struct {
	cfg       runConfig
	design    optimizer.ConfigRange
	objective stats.Objective
	heldOut   []optimizer.Specimen
	start     *core.WhiskerTree
	backend   optimizer.BatchRunner
	coord     *distrib.Coordinator // nil for the in-process workload
	wire      *wire
	handshake time.Duration
}

func (t *trainInstance) close() {
	if t.coord != nil {
		t.coord.Close()
	}
}

func (t *trainInstance) remy(tap *batchTap) *optimizer.Remy {
	r := optimizer.New(t.design, t.objective)
	r.Workers = trainWorkers
	r.Seed = t.cfg.seed
	r.CandidateRungs = 1
	r.ImprovementIters = 2
	r.Backend = tap
	return r
}

func (t *trainInstance) pass(env passEnv) (passResult, error) {
	tap := &batchTap{inner: t.backend, tr: env.tr, round: -1}
	var before distrib.Stats
	var reqBefore, respBefore int64
	if t.coord != nil {
		tap.batch = &t.wire.batch
		before = t.coord.Stats()
		reqBefore, respBefore = t.wire.reqBytes.Load(), t.wire.respBytes.Load()
	}
	r := t.remy(tap)

	opt := env.tr.begin("Optimize", env.parent)
	tap.round = env.tr.begin("round", opt)
	var roundMs []float64
	start := time.Now()
	last := start
	r.OnRound = func(optimizer.Progress) {
		now := time.Now()
		roundMs = append(roundMs, now.Sub(last).Seconds()*1e3)
		last = now
		env.tr.end(tap.round)
		tap.round = env.tr.begin("round", opt)
	}
	tree, progress, err := r.Optimize(t.start, t.cfg.size.trainRounds)
	wall := time.Since(start).Seconds()
	env.tr.end(opt)
	if err != nil {
		return passResult{}, err
	}
	ev := r.EvalStats()

	// train_score: the trained tree on a held-out specimen set drawn from
	// the seed. Scored outside the timed region.
	held, err := optimizer.NewEvaluator(t.objective).EvaluateUsage(tree, t.heldOut, t.design)
	if err != nil {
		return passResult{}, err
	}

	treeJSON, err := json.Marshal(tree)
	if err != nil {
		return passResult{}, err
	}
	d := newDigest()
	d.bytes(treeJSON)
	for _, p := range progress {
		d.int(int64(p.Rules))
		d.int(int64(p.Improved))
		d.int(int64(p.Evaluated))
	}
	d.int(ev.SimulatedRuns)
	d.int(ev.CacheHits)
	d.int(ev.PrunedRuns)

	sims := float64(ev.SimulatedRuns)
	out := passResult{ops: ev.SimulatedRuns, pkts: tap.acks, digest: d.String()}
	out.units = []unit{{
		name:  "pass",
		walls: []float64{wall},
		ops:   sims,
		pkts:  float64(tap.acks),
		simS:  sims * t.design.SpecimenDuration.Seconds(),
	}}
	out.extra = map[string]float64{
		"sims":           sims,
		"cache_hits":     float64(ev.CacheHits),
		"pruned":         float64(ev.PrunedRuns),
		"rounds":         float64(len(progress)),
		"batches":        float64(len(tap.jobs)),
		"jobs_per_batch": stats.Median(tap.jobs),
		"batch_s":        float64(tap.batchNs) / 1e9,
		"round_ms_p50":   stats.Median(roundMs),
		"round_ms_p90":   stats.Quantile(roundMs, 0.9),
		"train_score":    held.Score,
		"rules":          float64(tree.NumWhiskers()),
		"handshake_ms":   t.handshake.Seconds() * 1e3,
	}
	if t.coord != nil {
		after := t.coord.Stats()
		out.extra["wire_req_bytes"] = float64(t.wire.reqBytes.Load() - reqBefore)
		out.extra["wire_resp_bytes"] = float64(t.wire.respBytes.Load() - respBefore)
		out.extra["distrib_batches"] = float64(after.Batches - before.Batches)
		out.extra["respawns"] = float64(after.Respawns - before.Respawns)
		out.extra["redispatches"] = float64(after.Redispatches - before.Redispatches)
		if n := (after.Respawns - before.Respawns) + (after.Redispatches - before.Redispatches); n > 0 {
			out.failed += n
			out.notes = append(out.notes, fmt.Sprintf("%d worker respawns or batch re-dispatches", n))
		}
	}
	return out, nil
}

// heldOutSalt decorrelates the held-out specimen stream from the training
// rounds' streams, which split the same seed.
const heldOutSalt = 0x68656c646f7574 // "heldout"

func newTrainInstance(cfg runConfig) (*trainInstance, error) {
	trees, err := loadRemyTrees()
	if err != nil {
		return nil, err
	}
	// The paper's "1x" design model (§5.7: the link speed known exactly,
	// 15 Mbps and 150 ms) with the evaluation dumbbell's eight senders and
	// its traffic (100 kB transfers, 0.5 s mean off time). The network is the
	// same for every seed on purpose: the benchmark's spread is judged across
	// seeds, and under the general 10-20 Mbps / 100-200 ms / 1-16 sender model
	// with its 5-second on/off periods, a specimen of a second or two sees
	// anything from no sender to all of them, and the packets per simulated
	// specimen — with them the cost of an op — move twofold with the draw.
	// What the seed still decides is every on/off process and, through them,
	// the search path.
	design := optimizer.LinkSpeedDesignRange(15e6, 15e6)
	design.MinSenders, design.MaxSenders = 8, 8
	design.OnMode, design.MeanOnBytes, design.MeanOffSecs = workload.ByBytes, 100e3, 0.5
	design.SpecimenDuration = sim.FromSeconds(cfg.size.trainSimS)
	design.Specimens = cfg.size.trainSpecimens
	return &trainInstance{
		cfg:       cfg,
		design:    design,
		objective: stats.DefaultObjective(1),
		heldOut:   design.SampleSet(cfg.size.heldOut, sim.NewRNG(cfg.seed^heldOutSalt)),
		start:     trees.delta1,
		backend:   localBackend{},
	}, nil
}

// warmUp sends one batch — the start tree on a fresh specimen set — through
// the backend: it ends set-up with the engine pool (or the fleet's pools)
// filled and every worker past its first frame.
func (t *trainInstance) warmUp() error {
	specimens := t.design.SampleSet(8*t.design.Specimens, sim.NewRNG(t.cfg.seed))
	jobs := make([]optimizer.BatchJob, len(specimens))
	for i, sp := range specimens {
		jobs[i] = optimizer.BatchJob{Tree: t.start, Specimen: sp, Config: t.design, Affinity: i}
	}
	_, err := t.backend.RunBatch(t.objective, jobs)
	return err
}

func setupTrainRounds(cfg runConfig, _ *taps) (instance, error) {
	t, err := newTrainInstance(cfg)
	if err != nil {
		return nil, err
	}
	if err := t.warmUp(); err != nil {
		return nil, err
	}
	return t, nil
}

func setupTrainDistrib(cfg runConfig, tp *taps) (instance, error) {
	t, err := newTrainInstance(cfg)
	if err != nil {
		return nil, err
	}
	t.wire = &wire{tr: tp.tracer()}
	t.wire.batch.Store(-1)
	start := time.Now()
	coord, err := distrib.NewCoordinator(pipeFactory{t.wire}, distrib.Options{Procs: trainWorkers})
	if err != nil {
		return nil, err
	}
	t.handshake = time.Since(start)
	t.coord = coord
	t.backend = coord
	if err := t.warmUp(); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}
