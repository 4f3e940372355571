package distrib

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/optimizer"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// --- in-process pipe workers -------------------------------------------------

// pipeWorker runs Serve in a goroutine over in-memory pipes: the full
// protocol without process spawning, so the coordinator's machinery is
// testable (and raceable) inside one test binary.
type pipeWorker struct {
	conn    *Conn
	closers []io.Closer
	done    chan struct{}
	err     error
}

func (w *pipeWorker) Conn() *Conn { return w.conn }

func (w *pipeWorker) Kill() {
	for _, c := range w.closers {
		c.Close()
	}
}

func (w *pipeWorker) Wait() error { <-w.done; return w.err }

// pipeFactory starts pipe workers; optsFor customizes each incarnation
// (chaos exits), and onStart observes every spawn.
type pipeFactory struct {
	optsFor func(slot, attempt int) ServeOptions
	onStart func(slot, attempt int)
}

func (f pipeFactory) Start(slot, attempt int) (WorkerHandle, error) {
	if f.onStart != nil {
		f.onStart(slot, attempt)
	}
	opts := ServeOptions{Parallel: 1}
	if f.optsFor != nil {
		opts = f.optsFor(slot, attempt)
	}
	toWorkerR, toWorkerW := io.Pipe()
	fromWorkerR, fromWorkerW := io.Pipe()
	w := &pipeWorker{
		conn:    NewConn(fromWorkerR, toWorkerW),
		closers: []io.Closer{toWorkerR, toWorkerW, fromWorkerR, fromWorkerW},
		done:    make(chan struct{}),
	}
	go func() {
		defer close(w.done)
		w.err = Serve(toWorkerR, fromWorkerW, opts)
		fromWorkerW.Close()
	}()
	return w, nil
}

// --- shared training configuration -------------------------------------------

// goldenTrainConfig mirrors internal/optimizer's golden fixture
// configuration (golden_train_test.go) so the distributed plane can be
// checked against the same recorded bytes. Keep the two in sync when the
// fixture is regenerated.
func goldenTrainConfig() optimizer.ConfigRange {
	return optimizer.ConfigRange{
		MinSenders:           1,
		MaxSenders:           2,
		LinkRateBps:          optimizer.Range{Lo: 10e6, Hi: 10e6},
		RTTMs:                optimizer.Range{Lo: 100, Hi: 150},
		OnMode:               workload.ByTime,
		MeanOnSeconds:        2,
		MeanOffSecs:          1,
		QueueCapacityPackets: 1000,
		SpecimenDuration:     2 * sim.Second,
		Specimens:            3,
	}
}

func goldenRemy(backend optimizer.BatchRunner) *optimizer.Remy {
	r := optimizer.New(goldenTrainConfig(), stats.DefaultObjective(1))
	r.Seed = 42
	r.Workers = 4
	r.CandidateRungs = 1
	r.ImprovementIters = 1
	r.EpochsPerSplit = 1
	r.MaxRules = 32
	r.Backend = backend
	return r
}

func trainBytes(t *testing.T, backend optimizer.BatchRunner) []byte {
	t.Helper()
	tree, _, err := goldenRemy(backend).Optimize(nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(tree, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func newTestCoordinator(t *testing.T, factory Factory, opts Options) *Coordinator {
	t.Helper()
	c, err := NewCoordinator(factory, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// --- protocol ----------------------------------------------------------------

// TestFrameRoundTrip sends every shape of every frame type (wireFrames,
// codec_test.go) through WriteFrame → ReadFrame: the parsed frame must be
// deeply equal to the one sent, and re-encode to the same bytes.
func TestFrameRoundTrip(t *testing.T) {
	for _, tc := range wireFrames() {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			conn := NewConn(&buf, &buf)
			if err := conn.WriteFrame(tc.frame); err != nil {
				t.Fatal(err)
			}
			sent := append([]byte(nil), buf.Bytes()...)
			got, err := conn.ReadFrame()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.frame) {
				t.Fatalf("round-trip mismatch:\n got %s\nwant %s", dump(got), dump(tc.frame))
			}
			if err := conn.WriteFrame(got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), sent) {
				t.Fatalf("the parsed frame re-encodes to %d different bytes (first: %d)", buf.Len(), len(sent))
			}
		})
	}
}

func TestFrameRejectsOversizeLength(t *testing.T) {
	// A corrupted length prefix must fail fast, not allocate gigabytes.
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	conn := NewConn(&buf, io.Discard)
	if _, err := conn.ReadFrame(); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("want oversize error, got %v", err)
	}
}

func TestFrameMidStreamDeath(t *testing.T) {
	// A stream that dies inside a frame must not look like a clean EOF.
	var buf bytes.Buffer
	conn := NewConn(&buf, &buf)
	if err := conn.WriteFrame(&Frame{Type: TypeShutdown}); err != nil {
		t.Fatal(err)
	}
	truncated := bytes.NewReader(buf.Bytes()[:buf.Len()-2])
	if _, err := NewConn(truncated, io.Discard).ReadFrame(); err == nil || err == io.EOF {
		t.Fatalf("want mid-frame error, got %v", err)
	}
}

func TestTreeCodecPreservesWhiskerIndexing(t *testing.T) {
	// The wire carries per-whisker usage arrays indexed by whisker index;
	// this pins the codec property that makes that sound.
	tree := core.DefaultWhiskerTree()
	if err := tree.Split(0, core.Memory{AckEWMA: 1, SendEWMA: 2, RTTRatio: 1.5}); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(tree)
	if err != nil {
		t.Fatal(err)
	}
	decoded := &core.WhiskerTree{}
	if err := json.Unmarshal(data, decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.CanonicalKey() != tree.CanonicalKey() {
		t.Fatal("canonical key changed across the wire codec")
	}
	want := tree.Whiskers()
	got := decoded.Whiskers()
	if len(want) != len(got) {
		t.Fatalf("whisker count %d != %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("whisker %d changed across the codec: %+v != %+v", i, got[i], want[i])
		}
	}
}

// --- coordinator routing and merge -------------------------------------------

// fakeEvalFactory starts workers that answer batches with synthetic results
// (Sum = the job's specimen seed) and record which slot served which
// specimens — coordinator logic without running simulations.
type fakeEvalFactory struct {
	mu     sync.Mutex
	served map[int][]int64 // slot -> specimen seeds, in dispatch order
}

func (f *fakeEvalFactory) Start(slot, attempt int) (WorkerHandle, error) {
	toWorkerR, toWorkerW := io.Pipe()
	fromWorkerR, fromWorkerW := io.Pipe()
	w := &pipeWorker{
		conn:    NewConn(fromWorkerR, toWorkerW),
		closers: []io.Closer{toWorkerR, toWorkerW, fromWorkerR, fromWorkerW},
		done:    make(chan struct{}),
	}
	go func() {
		defer close(w.done)
		defer fromWorkerW.Close()
		conn := NewConn(toWorkerR, fromWorkerW)
		conn.WriteFrame(&Frame{Type: TypeHello, Hello: &Hello{Version: ProtocolVersion}})
		for {
			fr, err := conn.ReadFrame()
			if err != nil {
				return
			}
			if fr.Type != TypeEval {
				return
			}
			results := make([]WireResult, len(fr.Eval.Jobs))
			for i, j := range fr.Eval.Jobs {
				f.mu.Lock()
				f.served[slot] = append(f.served[slot], j.Specimen.Seed)
				f.mu.Unlock()
				results[i] = WireResult{Sum: float64(j.Specimen.Seed), Flows: 1, Counts: []int64{1}, Consulted: []bool{true}}
			}
			conn.WriteFrame(&Frame{Type: TypeResult, Result: &EvalResponse{ID: fr.Eval.ID, Results: results}})
		}
	}()
	return w, nil
}

func TestAffinityRoutingAndOrderedMerge(t *testing.T) {
	factory := &fakeEvalFactory{served: make(map[int][]int64)}
	c := newTestCoordinator(t, factory, Options{Procs: 3})

	tree := core.DefaultWhiskerTree()
	cfg := goldenTrainConfig()
	mkJobs := func(n int) []optimizer.BatchJob {
		jobs := make([]optimizer.BatchJob, n)
		for i := range jobs {
			jobs[i] = optimizer.BatchJob{Tree: tree, Specimen: optimizer.Specimen{Senders: 1, LinkRateBps: 1e7, RTTMs: 100, Seed: int64(1000 + i)}, Config: cfg, Affinity: i}
		}
		return jobs
	}

	// Two rounds of batches: every affinity must land on the same slot both
	// times, and results must come back in job order.
	for round := 0; round < 2; round++ {
		jobs := mkJobs(7)
		results, err := c.RunBatch(stats.DefaultObjective(1), jobs)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range results {
			if r.Sum != float64(jobs[i].Specimen.Seed) {
				t.Fatalf("round %d: result %d carries sum %v, want %v (merge order broken)", round, i, r.Sum, jobs[i].Specimen.Seed)
			}
		}
	}
	factory.mu.Lock()
	defer factory.mu.Unlock()
	for slot, seeds := range factory.served {
		for _, seed := range seeds {
			affinity := int(seed - 1000)
			if affinity%3 != slot {
				t.Fatalf("affinity %d served by slot %d, want %d", affinity, slot, affinity%3)
			}
		}
	}
}

// --- distributed == local ----------------------------------------------------

func TestDistributedTrainingMatchesInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("training run is too slow for -short")
	}
	local := trainBytes(t, nil)
	// The in-process run must itself match the recorded golden fixture; the
	// distributed runs then pin byte-identity against the same bytes.
	fixture, err := os.ReadFile(filepath.Join("..", "optimizer", "testdata", "golden_train.json"))
	if err != nil {
		t.Fatalf("missing golden fixture: %v", err)
	}
	if !bytes.Equal(local, fixture) {
		t.Fatal("in-process run differs from the optimizer golden fixture (is the distrib test config out of sync?)")
	}
	for _, procs := range []int{1, 2, 4} {
		c := newTestCoordinator(t, pipeFactory{}, Options{Procs: procs})
		dist := trainBytes(t, c)
		if !bytes.Equal(fixture, dist) {
			t.Fatalf("distributed training with %d workers differs from the golden fixture", procs)
		}
		st := c.Stats()
		if st.Batches == 0 || st.Jobs == 0 {
			t.Fatalf("coordinator did no work: %+v", st)
		}
	}
}

func TestCrashedWorkerRespawnsAndRunStaysByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("training run is too slow for -short")
	}
	local := trainBytes(t, nil)
	// Worker 0's first incarnation dies after two batches — mid-round — and
	// each respawned incarnation also dies after five more, so the fail-safe
	// path is exercised repeatedly over the run.
	factory := pipeFactory{optsFor: func(slot, attempt int) ServeOptions {
		opts := ServeOptions{Parallel: 1}
		if slot == 0 && attempt == 0 {
			opts.ExitAfterBatches = 2
		} else if slot == 0 {
			opts.ExitAfterBatches = 5
		}
		return opts
	}}
	c := newTestCoordinator(t, factory, Options{Procs: 2, RetryBackoff: time.Millisecond})
	dist := trainBytes(t, c)
	if !bytes.Equal(local, dist) {
		t.Fatal("training with a crashing worker diverged from the in-process run")
	}
	st := c.Stats()
	if st.Respawns == 0 || st.Redispatches == 0 {
		t.Fatalf("chaos run never exercised the respawn path: %+v", st)
	}
}

func TestRetriesExhaustedSurfacesError(t *testing.T) {
	// Every incarnation of every worker dies immediately: the batch must
	// fail after the bounded retries, not hang or loop forever.
	factory := pipeFactory{optsFor: func(slot, attempt int) ServeOptions {
		return ServeOptions{Parallel: 1, ExitAfterBatches: -1}
	}}
	c := newTestCoordinator(t, factory, Options{Procs: 1, Retries: 1, RetryBackoff: time.Millisecond})
	jobs := []optimizer.BatchJob{{Tree: core.DefaultWhiskerTree(), Specimen: optimizer.Specimen{Senders: 1, LinkRateBps: 1e7, RTTMs: 100, Seed: 1}, Config: goldenTrainConfig()}}
	_, err := c.RunBatch(stats.DefaultObjective(1), jobs)
	if err == nil || !strings.Contains(err.Error(), "after 2 attempts") {
		t.Fatalf("want bounded-retry failure, got %v", err)
	}
}

func TestBatchLevelErrorIsNotRetried(t *testing.T) {
	// A worker that answers with a batch error reports a deterministic
	// failure; the coordinator must surface it without burning respawns.
	var starts int32
	factory := pipeFactory{
		onStart: func(slot, attempt int) { starts++ },
		optsFor: func(slot, attempt int) ServeOptions { return ServeOptions{Parallel: 1} },
	}
	c := newTestCoordinator(t, factory, Options{Procs: 1, Retries: 3, RetryBackoff: time.Millisecond})
	// A design range whose workload cannot compile (non-positive exponential
	// mean) produces a deterministic worker-side error.
	badCfg := goldenTrainConfig()
	badCfg.MeanOffSecs = 0
	jobs := []optimizer.BatchJob{{Tree: core.DefaultWhiskerTree(), Specimen: optimizer.Specimen{Senders: 1, LinkRateBps: 1e7, RTTMs: 100, Seed: 1}, Config: badCfg}}
	_, err := c.RunBatch(stats.DefaultObjective(1), jobs)
	if err == nil {
		t.Fatal("want batch error")
	}
	if st := c.Stats(); st.Redispatches != 0 {
		t.Fatalf("deterministic batch failure was retried: %+v", st)
	}
	if starts != 1 {
		t.Fatalf("worker restarted %d times for a non-retryable failure", starts)
	}
}

func TestVersionMismatchRefused(t *testing.T) {
	factory := pipeFactory{} // real Serve sends the current version
	c, err := NewCoordinator(factory, Options{Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()

	// A worker speaking a different protocol version must be refused.
	bad := factoryFunc(func(slot, attempt int) (WorkerHandle, error) {
		toWorkerR, toWorkerW := io.Pipe()
		fromWorkerR, fromWorkerW := io.Pipe()
		w := &pipeWorker{
			conn:    NewConn(fromWorkerR, toWorkerW),
			closers: []io.Closer{toWorkerR, toWorkerW, fromWorkerR, fromWorkerW},
			done:    make(chan struct{}),
		}
		go func() {
			defer close(w.done)
			defer fromWorkerW.Close()
			conn := NewConn(toWorkerR, fromWorkerW)
			conn.WriteFrame(&Frame{Type: TypeHello, Hello: &Hello{Version: ProtocolVersion + 1}})
		}()
		return w, nil
	})
	if _, err := NewCoordinator(bad, Options{Procs: 1}); err == nil || !strings.Contains(err.Error(), "protocol") {
		t.Fatalf("want version-mismatch error, got %v", err)
	}

	// A v1 binary's hello, as recorded off its wire: JSON behind the length
	// prefix. It must be refused by name, not as an unknown tag.
	v1 := factoryFunc(func(slot, attempt int) (WorkerHandle, error) {
		toWorkerR, toWorkerW := io.Pipe()
		fromWorkerR, fromWorkerW := io.Pipe()
		w := &pipeWorker{
			conn:    NewConn(fromWorkerR, toWorkerW),
			closers: []io.Closer{toWorkerR, toWorkerW, fromWorkerR, fromWorkerW},
			done:    make(chan struct{}),
		}
		go func() {
			defer close(w.done)
			defer fromWorkerW.Close()
			hello := `{"type":"hello","hello":{"version":1,"parallel":1,"pid":4242}}`
			fromWorkerW.Write(append(binary.BigEndian.AppendUint32(nil, uint32(len(hello))), hello...))
		}()
		return w, nil
	})
	if _, err := NewCoordinator(v1, Options{Procs: 1}); err == nil || !strings.Contains(err.Error(), "JSON protocol (v1)") || !strings.Contains(err.Error(), "mixed binaries") {
		t.Fatalf("want the v1-peer error, got %v", err)
	}
}

type factoryFunc func(slot, attempt int) (WorkerHandle, error)

func (f factoryFunc) Start(slot, attempt int) (WorkerHandle, error) { return f(slot, attempt) }

// TestServeChaosExit pins the worker-side contract: the chaos exit happens
// before the fatal batch is answered, so the coordinator's re-dispatch is
// what preserves those jobs.
func TestServeChaosExit(t *testing.T) {
	toWorkerR, toWorkerW := io.Pipe()
	fromWorkerR, fromWorkerW := io.Pipe()
	served := make(chan error, 1)
	go func() {
		served <- Serve(toWorkerR, fromWorkerW, ServeOptions{Parallel: 1, ExitAfterBatches: -1})
	}()
	conn := NewConn(fromWorkerR, toWorkerW)
	if f, err := conn.ReadFrame(); err != nil || f.Type != TypeHello {
		t.Fatalf("handshake: %v %v", f, err)
	}
	req := &EvalRequest{ID: 1, Objective: stats.DefaultObjective(1)}
	if err := conn.WriteFrame(&Frame{Type: TypeEval, Eval: req}); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != ErrChaosExit {
		t.Fatalf("want ErrChaosExit, got %v", err)
	}
}

// TestWatchdogKillsWedgedWorker pins the per-batch watchdog: a worker that
// never answers is killed and the batch fails over to a respawn.
func TestWatchdogKillsWedgedWorker(t *testing.T) {
	var starts int
	factory := factoryFunc(func(slot, attempt int) (WorkerHandle, error) {
		starts++
		if attempt >= 1 {
			// Respawns behave: real workers.
			return pipeFactory{}.Start(slot, attempt)
		}
		// First incarnation: handshakes, then goes silent forever.
		toWorkerR, toWorkerW := io.Pipe()
		fromWorkerR, fromWorkerW := io.Pipe()
		w := &pipeWorker{
			conn:    NewConn(fromWorkerR, toWorkerW),
			closers: []io.Closer{toWorkerR, toWorkerW, fromWorkerR, fromWorkerW},
			done:    make(chan struct{}),
		}
		go func() {
			defer close(w.done)
			conn := NewConn(toWorkerR, fromWorkerW)
			conn.WriteFrame(&Frame{Type: TypeHello, Hello: &Hello{Version: ProtocolVersion}})
			// Read batches, never answer; exit (unblocking Wait) once the
			// coordinator kills the pipes.
			for {
				if _, err := conn.ReadFrame(); err != nil {
					return
				}
			}
		}()
		return w, nil
	})
	c := newTestCoordinator(t, factory, Options{Procs: 1, BatchTimeout: 100 * time.Millisecond, Retries: 1, RetryBackoff: time.Millisecond})
	jobs := []optimizer.BatchJob{{Tree: core.DefaultWhiskerTree(), Specimen: optimizer.Specimen{Senders: 1, LinkRateBps: 1e7, RTTMs: 100, Seed: 9}, Config: quickConfig()}}
	results, err := c.RunBatch(stats.DefaultObjective(1), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Flows == 0 {
		t.Fatalf("bad results after watchdog failover: %+v", results)
	}
	if starts != 2 {
		t.Fatalf("expected exactly one respawn, got %d starts", starts)
	}
}

// quickConfig is a sub-second design range for tests that only need one
// real simulation.
func quickConfig() optimizer.ConfigRange {
	cfg := goldenTrainConfig()
	cfg.SpecimenDuration = sim.Second / 2
	return cfg
}

// TestEvaluatorBackendStatsUnchanged pins that the memo cache and pruning
// stay coordinator-side: a distributed evaluation performs the same number
// of simulated runs, cache hits and pruned runs as an in-process one.
func TestEvaluatorBackendStatsUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("training run is too slow for -short")
	}
	runStats := func(backend optimizer.BatchRunner) optimizer.EvalStats {
		r := goldenRemy(backend)
		if _, _, err := r.Optimize(nil, 2); err != nil {
			t.Fatal(err)
		}
		return r.EvalStats()
	}
	local := runStats(nil)
	c := newTestCoordinator(t, pipeFactory{}, Options{Procs: 2})
	dist := runStats(c)
	if local != dist {
		t.Fatalf("evaluator stats differ: local %+v, distributed %+v", local, dist)
	}
	if st := c.Stats(); st.Jobs != dist.SimulatedRuns {
		t.Fatalf("coordinator shipped %d jobs, evaluator simulated %d", st.Jobs, dist.SimulatedRuns)
	}
}

func TestCoordinatorRejectsZeroProcs(t *testing.T) {
	if _, err := NewCoordinator(pipeFactory{}, Options{Procs: 0}); err == nil {
		t.Fatal("want error for Procs=0")
	}
}

// --- wire-float exactness -----------------------------------------------------

func TestWireResultFloatExactness(t *testing.T) {
	// The determinism argument leans on every float64 crossing the wire bit
	// for bit — including the values a decimal codec cannot carry, which
	// must not turn a healthy worker's answer into a write error.
	vals := []float64{0, 1.0 / 3.0, -1e9, 123.45600000000002,
		math.SmallestNonzeroFloat64, math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	var buf bytes.Buffer
	conn := NewConn(&buf, &buf)
	for _, v := range vals {
		want := math.Float64bits(v)
		frames := []*Frame{
			{Type: TypeResult, Result: &EvalResponse{ID: 1, Results: []WireResult{{Sum: v}}}},
			{Type: TypeEval, Eval: &EvalRequest{ID: 1, Objective: stats.Objective{Alpha: v, Beta: v, Delta: v}}},
		}
		for _, f := range frames {
			if err := conn.WriteFrame(f); err != nil {
				t.Fatalf("float %v: %v", v, err)
			}
			got, err := conn.ReadFrame()
			if err != nil {
				t.Fatalf("float %v: %v", v, err)
			}
			var crossed []float64
			if got.Result != nil {
				crossed = []float64{got.Result.Results[0].Sum}
			} else {
				o := got.Eval.Objective
				crossed = []float64{o.Alpha, o.Beta, o.Delta}
			}
			for _, g := range crossed {
				if math.Float64bits(g) != want {
					t.Fatalf("float %v (%#x) crossed a %s frame as %v (%#x)", v, want, f.Type, g, math.Float64bits(g))
				}
			}
		}
	}
}
