package scenario

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cc"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// driveAlgorithm puts an algorithm through everything a run can feed it:
// slow start and congestion avoidance on growing and shrinking RTTs, ECN
// echoes, positive and negative XCP feedback, duplicate ACKs, losses and
// timeouts.
func driveAlgorithm(algo cc.Algorithm) {
	now := sim.Time(0)
	for i := range 400 {
		now += sim.Millisecond
		rtt := sim.Time(40+(i*7)%50) * sim.Millisecond
		newly := 1
		if i%11 == 0 {
			newly = 0 // a duplicate ACK
		}
		feedback := 900.0
		if i%3 == 0 {
			feedback = -1200
		}
		algo.OnAck(cc.AckEvent{
			Now: now, RTT: rtt, MinRTT: 40 * sim.Millisecond, SRTT: rtt,
			NewlyAcked: newly, InFlight: 1 + i%20, ECNEcho: i%5 == 0, MSS: netsim.MTU,
			Ack: netsim.Ack{Seq: int64(i), CumAck: int64(i), SentAt: now - rtt,
				XCPFeedback: feedback, HasXCP: true, ECNEcho: i%5 == 0},
		})
		switch i {
		case 120, 260:
			algo.OnLoss(now)
		case 330:
			algo.OnTimeout(now)
		}
	}
}

// TestStockResetMatchesNew pins what lets a session hand a stock protocol's
// algorithm from one flow to the next: for every protocol the default
// registry marks stock, Reset(0) on a driven algorithm gives exactly what
// the protocol's New gives.
func TestStockResetMatchesNew(t *testing.T) {
	reg := Default()
	var want []string
	for _, p := range append(BaselineProtocols(), DCTCP()) {
		want = append(want, p.Name)
	}
	slices.Sort(want)
	if got := sortedKeys(reg.stockSchemes); !slices.Equal(got, want) {
		t.Fatalf("stock protocols %v, want the baselines and DCTCP, %v", got, want)
	}
	for _, name := range want {
		p, err := reg.Protocol(FlowSpec{Scheme: name})
		if err != nil {
			t.Fatal(err)
		}
		if !p.stock {
			t.Errorf("%s: the default registry resolves it as not stock", name)
		}
		algo := p.New()
		driveAlgorithm(algo)
		if reflect.DeepEqual(algo, p.New()) {
			t.Fatalf("%s: driving the algorithm left it as new; the test exercises nothing", name)
		}
		algo.Reset(0)
		if fresh := p.New(); !reflect.DeepEqual(algo, fresh) {
			t.Errorf("%s: Reset(0) after a run gives %+v, New gives %+v", name, algo, fresh)
		}
	}
}

// TestCallerAlgorithmsNeverPooled pins that a session hands out spare
// algorithms only for the registry's stock protocols: a FlowSpec.Algorithm
// override or a protocol a caller registered runs the algorithms its own
// constructor builds, even under a stock scheme's name, and those never
// reach a stock world either.
func TestCallerAlgorithmsNeverPooled(t *testing.T) {
	// built collects every algorithm the caller's constructors returned.
	built := map[cc.Algorithm]bool{}
	track := func(newAlgo func() cc.Algorithm) func() cc.Algorithm {
		return func() cc.Algorithm {
			a := newAlgo()
			built[a] = true
			return a
		}
	}
	churn := func() Option {
		return WithChurn(ChurnSpec{Classes: []ChurnClassSpec{{
			Scheme: "newreno", RTTMs: 40, Interarrival: ExponentialDist(0.02), Size: ExponentialDist(30_000),
		}}})
	}
	w := ByBytesWorkload(ExponentialDist(100_000), ExponentialDist(0.05))
	stock := New(WithLink(10e6), WithDuration(0.5), WithSeed(3), WithFlows(3, "newreno", 40, w),
		WithFlows(2, "cubic", 40, w), churn())
	// The override world's first two flows and its churn class run the
	// caller's newreno, its last two the stock one.
	override := New(WithLink(10e6), WithDuration(0.5), WithSeed(3), WithFlows(2, "newreno", 40, w),
		WithFlows(2, "newreno", 40, w), churn())
	override.Flows[0].Algorithm = track(NewReno().New)
	override.Churn.Classes[0].Algorithm = track(NewReno().New)
	registered := New(WithLink(10e6), WithDuration(0.5), WithSeed(3), WithFlows(3, "cubic", 40, w))
	reg := NewRegistry()
	if err := reg.RegisterProtocol(Protocol{Name: "cubic", New: track(Cubic().New)}); err != nil {
		t.Fatal(err)
	}
	dropTail, err := Default().Queue(QueueDropTail)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterQueue(QueueDropTail, dropTail); err != nil {
		t.Fatal(err)
	}

	// algorithms returns the algorithms the session's world runs: its
	// static flows', then every churn flow's and unused probe's.
	algorithms := func(ss *Session) []cc.Algorithm {
		var out []cc.Algorithm
		for _, fs := range ss.flows {
			out = append(out, fs.transport.Algorithm())
		}
		for _, cs := range ss.churn.classes {
			for _, fs := range cs.live {
				out = append(out, fs.transport.Algorithm())
			}
			if cs.probe != nil {
				out = append(out, cs.probe)
			}
		}
		for _, fs := range ss.parts.flows {
			if fs.cs != nil {
				out = append(out, fs.transport.Algorithm())
			}
		}
		return out
	}
	var ss Session
	none := func([]cc.Algorithm) int { return 0 }
	allButTwo := func(algos []cc.Algorithm) int { return len(algos) - 2 }
	all := func(algos []cc.Algorithm) int { return len(algos) }
	steps := []struct {
		reg  *Registry
		spec *Spec
		// callers is how many of the world's algorithms its caller's
		// constructors must have built; the rest must not be theirs.
		callers func([]cc.Algorithm) int
	}{
		{nil, &stock, none},
		{nil, &override, allButTwo},
		{nil, &stock, none},
		{reg, &registered, all},
		{nil, &stock, none},
		{nil, &override, allButTwo},
	}
	for i, step := range steps {
		if err := ss.Rebuild(step.reg, step.spec, 0); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if _, err := ss.Run(int64(i)); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		algos := algorithms(&ss)
		callers := 0
		for _, a := range algos {
			if built[a] {
				callers++
			}
		}
		if want := step.callers(algos); callers != want {
			t.Errorf("step %d (%s): %d of the world's %d algorithms are its caller's, want %d",
				i, step.spec.Flows[0].Scheme, callers, len(algos), want)
		}
		for _, ka := range ss.parts.algos {
			if built[ka.algo] {
				t.Fatalf("step %d: a caller's algorithm is a spare under %q", i, ka.key)
			}
		}
	}
}

// TestRebuildSequenceMatchesFresh rebuilds one session newreno → cubic over
// sfqCoDel → newreno, each world with static flows and a churn class of its
// scheme, so the last world runs on the spare newreno algorithms the first
// left behind: every run must give, byte for byte, what a fresh session
// built for the same world gives.
func TestRebuildSequenceMatchesFresh(t *testing.T) {
	world := func(scheme string, flows int) Spec {
		w := ByBytesWorkload(ExponentialDist(200_000), ExponentialDist(0.05))
		return New(WithLink(12e6), WithQueue("", 200), WithDuration(1), WithSeed(7),
			WithFlows(flows, scheme, 60, w),
			WithChurn(ChurnSpec{MaxLiveFlows: 16, Classes: []ChurnClassSpec{{
				Scheme: scheme, RTTMs: 30, Interarrival: ExponentialDist(0.03), Size: ExponentialDist(40_000),
			}}}))
	}
	worlds := []Spec{world("newreno", 4), world("cubic/sfqcodel", 2), world("newreno", 3)}
	seeds := []int64{1, 9}
	encode := func(ss *Session, seed int64) []byte {
		t.Helper()
		res, err := ss.Run(seed)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	var rebuilt Session
	for i := range worlds {
		var fresh Session
		if err := fresh.Rebuild(nil, &worlds[i], 0); err != nil {
			t.Fatal(err)
		}
		if err := rebuilt.Rebuild(nil, &worlds[i], 0); err != nil {
			t.Fatal(err)
		}
		for _, seed := range seeds {
			if got, want := encode(&rebuilt, seed), encode(&fresh, seed); !bytes.Equal(got, want) {
				t.Errorf("world %d (%s) seed %d: the rebuilt session diverges from a fresh one\n got: %s\nwant: %s",
					i, worlds[i].Flows[0].Scheme, seed, got, want)
			}
		}
	}
	if len(rebuilt.parts.algos) == 0 {
		t.Error("the rebuilt session kept no spare algorithms; the sequence exercises no reuse")
	}
}
