package scenario

import (
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/cc/newreno"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// quickSpec returns a small dumbbell spec that simulates in well under a
// second per repetition.
func quickSpec(reps int) Spec {
	return New(
		WithName("quick"),
		WithLink(10e6),
		WithQueue(QueueDropTail, 500),
		WithDuration(5),
		WithSeed(11),
		WithRepetitions(reps),
		WithFlows(2, "newreno", 100, ByBytesWorkload(ExponentialDist(100e3), ExponentialDist(0.5))),
	)
}

func TestRunnerDeterministicAcrossWorkerCounts(t *testing.T) {
	spec := quickSpec(6)
	var baseline []Result
	for _, workers := range []int{1, 3, 8} {
		results, err := Runner{Workers: workers}.RunOne(spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != 6 {
			t.Fatalf("workers=%d: got %d results", workers, len(results))
		}
		if baseline == nil {
			baseline = results
			continue
		}
		for i := range results {
			if results[i].Rep != baseline[i].Rep || results[i].Seed != baseline[i].Seed {
				t.Fatalf("workers=%d rep %d: ordering or seed differs", workers, i)
			}
			if !reflect.DeepEqual(results[i].Throughput, baseline[i].Throughput) ||
				!reflect.DeepEqual(results[i].Delay, baseline[i].Delay) {
				t.Fatalf("workers=%d rep %d: summaries differ from 1-worker baseline", workers, i)
			}
			for fi := range results[i].Res.Flows {
				if results[i].Res.Flows[fi].Transport.PacketsSent != baseline[i].Res.Flows[fi].Transport.PacketsSent {
					t.Fatalf("workers=%d rep %d flow %d: packet counts differ", workers, i, fi)
				}
			}
		}
	}
	// Repetitions must actually differ from one another (different seeds).
	same := true
	for i := 1; i < len(baseline); i++ {
		if !reflect.DeepEqual(baseline[i].Throughput, baseline[0].Throughput) {
			same = false
		}
	}
	if same {
		t.Error("all repetitions produced identical summaries (seed derivation suspect)")
	}
}

// fusedAlgorithm is NewReno until its fuse is lit, then panics on the next
// acknowledgment.
type fusedAlgorithm struct {
	cc.Algorithm
	lit *bool
}

func (a fusedAlgorithm) OnAck(ev cc.AckEvent) {
	if *a.lit {
		panic("fuse lit")
	}
	a.Algorithm.OnAck(ev)
}

// TestWorkerRecoversPanicInReusedSession drives one Worker the way Stream's
// goroutines and the optimizer's batch workers do. An algorithm that panics
// in the middle of a warm session's run must surface as that repetition's
// error only: the worker drops the poisoned session, engine included, and its later
// repetitions equal a fresh runner's.
func TestWorkerRecoversPanicInReusedSession(t *testing.T) {
	lit := false
	spec := quickSpec(4)
	spec.Flows[0].Algorithm = func() cc.Algorithm { return fusedAlgorithm{newreno.New(), &lit} }
	want, err := Runner{Workers: 1}.RunOne(spec)
	if err != nil {
		t.Fatal(err)
	}

	w := Runner{}.NewWorker()
	defer w.Close()
	for rep := 0; rep < 4; rep++ {
		lit = rep == 1
		got := w.Run(&spec, rep)
		if lit {
			if got.Err == nil || !strings.Contains(got.Err.Error(), "panic: fuse lit") {
				t.Fatalf("rep %d: panicking run returned Err = %v", rep, got.Err)
			}
			if w.session != nil {
				t.Error("worker kept the session a panic ran through")
			}
			continue
		}
		if got.Err != nil {
			t.Fatalf("rep %d: %v", rep, got.Err)
		}
		if rep > 1 && w.session == nil {
			t.Errorf("rep %d: worker did not keep its session warm", rep)
		}
		if got.Seed != want[rep].Seed || !reflect.DeepEqual(got.Res, want[rep].Res) {
			t.Errorf("rep %d: result differs from a fresh runner's", rep)
		}
	}
}

func TestRunnerBatchOrderingAndNames(t *testing.T) {
	specs := []Spec{quickSpec(2), quickSpec(1)}
	specs[1].Name = "second"
	specs[1].Seed = 29
	results, err := Runner{Workers: 4}.RunAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	wantOrder := []struct {
		idx, rep int
		name     string
	}{{0, 0, "quick"}, {0, 1, "quick"}, {1, 0, "second"}}
	for i, w := range wantOrder {
		r := results[i]
		if r.SpecIndex != w.idx || r.Rep != w.rep || r.SpecName != w.name {
			t.Errorf("result %d = (%d, %d, %q), want (%d, %d, %q)",
				i, r.SpecIndex, r.Rep, r.SpecName, w.idx, w.rep, w.name)
		}
	}
	if results[2].Seed != 29 {
		t.Error("rep 0 must run with the spec's base seed")
	}
}

func TestRunnerTraceModelDeterminism(t *testing.T) {
	spec := New(
		WithName("cellular"),
		WithLinkModel("verizon"),
		WithQueue(QueueDropTail, 500),
		WithDuration(5),
		WithSeed(5),
		WithRepetitions(2),
		WithFlows(2, "cubic", 50, ByBytesWorkload(ExponentialDist(100e3), ExponentialDist(0.5))),
	)
	a, err := Runner{Workers: 1}.RunOne(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Runner{Workers: 2}.RunOne(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if !reflect.DeepEqual(a[i].Throughput, b[i].Throughput) {
			t.Fatalf("rep %d: trace-driven runs differ across worker counts", i)
		}
	}
	// Different repetitions get different traces (and thus results).
	if reflect.DeepEqual(a[0].Throughput, a[1].Throughput) {
		t.Error("both repetitions saw identical results; per-rep trace derivation suspect")
	}
}

func TestRunnerErrors(t *testing.T) {
	bad := quickSpec(1)
	bad.Flows[0].Scheme = "unknown-scheme"
	if _, err := (Runner{}).RunOne(bad); err == nil {
		t.Error("unknown scheme accepted")
	}
	if _, err := (Runner{}).RunOne(Spec{}); err == nil {
		t.Error("empty spec accepted")
	}
	// XCP over a pure trace with no capacity estimate would error; with a
	// fixed-rate link the capacity estimate is implied.
	xcpSpec := quickSpec(1)
	xcpSpec.Flows[0].Scheme = "xcp"
	xcpSpec.Queue.Kind = ""
	if _, err := (Runner{}).RunOne(xcpSpec); err != nil {
		t.Errorf("xcp over fixed link: %v", err)
	}
}

func TestQueueKindDerivedFromProtocol(t *testing.T) {
	reg := Default()
	spec := quickSpec(1)
	spec.Queue.Kind = ""
	spec.Flows[0].Scheme = "dctcp"
	kind, err := spec.QueueKindFor(reg)
	if err != nil {
		t.Fatal(err)
	}
	if kind != QueueECN {
		t.Errorf("dctcp derived queue %q, want %q", kind, QueueECN)
	}
	// Conflicting implied kinds must error without an explicit override.
	spec.Flows = append(spec.Flows, FlowSpec{Scheme: "xcp", RTTMs: 100, Workload: spec.Flows[0].Workload})
	if _, err := spec.QueueKindFor(reg); err == nil {
		t.Error("conflicting implied queue kinds accepted")
	}
	spec.Queue.Kind = QueueDropTail
	if kind, err := spec.QueueKindFor(reg); err != nil || kind != QueueDropTail {
		t.Errorf("explicit queue kind not honored: %q, %v", kind, err)
	}
}

// TestCompileExpandsFlowCounts: a flow entry with a count runs as that many
// flows, repetition 0 runs at the spec's own seed, and the link/queue form
// builds the one bottleneck link.
func TestCompileExpandsFlowCounts(t *testing.T) {
	spec := quickSpec(1)
	spec.Flows[0].Count = 5
	results, err := Runner{Workers: 1}.RunOne(spec)
	if err != nil {
		t.Fatal(err)
	}
	res := results[0]
	if len(res.Res.Flows) != 5 {
		t.Errorf("ran %d flows, want 5", len(res.Res.Flows))
	}
	if res.Seed != spec.Seed {
		t.Errorf("rep 0 seed = %d, want %d", res.Seed, spec.Seed)
	}
	if len(res.Res.Links) != 1 || res.Res.Links[0].Name != netsim.BottleneckLink || res.Res.Links[0].Delivered == 0 {
		t.Fatalf("link/queue form did not build the one bottleneck link: %+v", res.Res.Links)
	}
}

func TestRunOneWithOnDeliverHook(t *testing.T) {
	count := 0
	spec := quickSpec(1)
	spec.OnDeliver = func(p *netsim.Packet, now sim.Time) { count++ }
	if _, err := (Runner{Workers: 1}).RunOne(spec); err != nil {
		t.Fatal(err)
	}
	if count == 0 {
		t.Error("OnDeliver hook never fired")
	}
	// The hook would race across repetitions, so multi-rep specs reject it.
	spec.Repetitions = 2
	if spec.Validate() == nil {
		t.Error("OnDeliver with multiple repetitions accepted")
	}
}

func TestHasProtocol(t *testing.T) {
	reg := Default()
	if !reg.HasProtocol("cubic") || reg.HasProtocol("carrier-pigeon") {
		t.Error("HasProtocol")
	}
}

// TestStreamCancellation abandons a Stream after one result and verifies the
// producer and worker goroutines all exit instead of blocking on sends into
// the abandoned channel forever (the leak the campaign executor's
// interrupt/resume path depends on not having).
func TestStreamCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	done := make(chan struct{})
	// Plenty of repetitions so workers are guaranteed to still be producing
	// when the consumer walks away.
	ch := Runner{Workers: 4}.Stream(done, []Spec{quickSpec(32)})
	<-ch // take one result, then abandon the channel
	close(done)
	// Every goroutine the stream spawned must exit; poll because in-flight
	// simulations finish their current run before noticing the cancel.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after cancel: %d before stream, %d now", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The channel must be closed (drained) eventually, not left open.
	for range ch {
	}
}

// TestStreamNilDoneDrainsToCompletion pins the done=nil form: a fully
// drained stream yields every repetition exactly once.
func TestStreamNilDoneDrainsToCompletion(t *testing.T) {
	seen := make(map[int]bool)
	for res := range (Runner{Workers: 3}).Stream(nil, []Spec{quickSpec(5)}) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if seen[res.Rep] {
			t.Fatalf("repetition %d delivered twice", res.Rep)
		}
		seen[res.Rep] = true
	}
	if len(seen) != 5 {
		t.Fatalf("drained %d repetitions, want 5", len(seen))
	}
}

// wedgedAlgorithm is NewReno whose first acknowledgment blocks until release
// is closed: a repetition wedged inside a run. wedged is closed once it is.
type wedgedAlgorithm struct {
	cc.Algorithm
	once            *sync.Once
	wedged, release chan struct{}
}

func (a wedgedAlgorithm) OnAck(ev cc.AckEvent) {
	a.once.Do(func() {
		close(a.wedged)
		<-a.release
	})
	a.Algorithm.OnAck(ev)
}

func idleSessions() int {
	sessionPool.mu.Lock()
	defer sessionPool.mu.Unlock()
	return len(sessionPool.free)
}

// TestAbandonedWorkerDiscardsSession is the campaign watchdog's case: it
// cancels a stream whose repetition is wedged inside a run and walks away.
// When the run comes unstuck, its worker must drop the session it ran on,
// not return it to the pool, whatever state it is in.
func TestAbandonedWorkerDiscardsSession(t *testing.T) {
	// Leave an idle session in the pool for the wedged worker to take.
	if _, err := (Runner{Workers: 1}).RunOne(quickSpec(1)); err != nil {
		t.Fatal(err)
	}
	before := idleSessions()
	var once sync.Once
	wedged, release := make(chan struct{}), make(chan struct{})
	spec := quickSpec(1)
	spec.Flows[0].Algorithm = func() cc.Algorithm { return wedgedAlgorithm{newreno.New(), &once, wedged, release} }
	done := make(chan struct{})
	results := Runner{Workers: 1}.Stream(done, []Spec{spec})
	<-wedged
	if got := idleSessions(); got != before-1 {
		t.Fatalf("the wedged worker took no idle session: %d idle before, %d now", before, got)
	}
	close(done)
	close(release)
	for range results {
	}
	if got := idleSessions(); got != before-1 {
		t.Errorf("the abandoned worker pooled its session: %d idle sessions, want %d", got, before-1)
	}
}
