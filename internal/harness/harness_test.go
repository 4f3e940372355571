// The tests of this package check what simulation runs report in a
// harness.Result — throughput, delay, fairness, conservation, churn and fault
// accounting — and which worlds a run refuses. The worlds are scenario specs,
// built and run by scenario sessions.
package harness_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/aqm"
	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/netsim"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// alwaysOn is a workload that stays on for the whole run.
func alwaysOn() scenario.WorkloadSpec {
	return scenario.WorkloadSpec{Mode: scenario.ModeByTime, On: scenario.ConstantDist(1e6),
		Off: scenario.ConstantDist(1e6), StartOn: true}
}

// flows is n always-on flows of the scheme at the given RTT.
func flows(n int, scheme string, rttMs float64) scenario.FlowSpec {
	return scenario.FlowSpec{Scheme: scheme, Count: n, RTTMs: rttMs, Workload: alwaysOn()}
}

// dumbbell is the single-bottleneck world: the given flows on a link of the
// given rate with a queue of the given kind and buffer, for the given time.
func dumbbell(rateBps float64, kind string, buffer int, seconds float64, fs ...scenario.FlowSpec) scenario.Spec {
	s := scenario.New(scenario.WithLink(rateBps), scenario.WithQueue(kind, buffer), scenario.WithDuration(seconds))
	s.Flows = fs
	return s
}

// run builds spec's world on a new session and runs it once with the seed.
func run(t testing.TB, spec scenario.Spec, seed int64) harness.Result {
	t.Helper()
	var ss scenario.Session
	if err := ss.Rebuild(nil, &spec, 0); err != nil {
		t.Fatal(err)
	}
	res, err := ss.Run(seed)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// refuses checks that a run of spec fails with an error mentioning fragment.
func refuses(t *testing.T, spec scenario.Spec, fragment string) {
	t.Helper()
	_, err := scenario.Runner{Workers: 1}.RunOne(spec)
	if err == nil || !strings.Contains(err.Error(), fragment) {
		t.Errorf("run error %v, want one mentioning %q", err, fragment)
	}
}

// nilAlgorithm is a constructor that builds no algorithm.
func nilAlgorithm() cc.Algorithm { return nil }

// TestScenarioValidate: a run refuses a world without flows or duration, a
// link without a rate or trace, a flow with a negative RTT, no scheme or an
// invalid workload — the spec's validation catches these — and a flow whose
// scheme builds no algorithm, which the build catches.
func TestScenarioValidate(t *testing.T) {
	valid := dumbbell(1e6, scenario.QueueDropTail, 1000, 1, flows(1, "newreno", 100))
	if _, err := (scenario.Runner{Workers: 1}).RunOne(valid); err != nil {
		t.Fatalf("valid world refused: %v", err)
	}
	cases := []struct {
		check, fragment string
		mut             func(*scenario.Spec)
	}{
		{"no flows", "no flows", func(s *scenario.Spec) { s.Flows = nil }},
		{"non-positive duration", "positive duration", func(s *scenario.Spec) { s.DurationSeconds = 0 }},
		{"link without rate or trace", "rate_bps", func(s *scenario.Spec) { s.Link.RateBps = 0 }},
		{"negative RTT", "negative RTT", func(s *scenario.Spec) { s.Flows[0].RTTMs = -1 }},
		{"missing algorithm", "no scheme", func(s *scenario.Spec) { s.Flows[0].Scheme = "" }},
		{"nil-returning algorithm", "built no algorithm", func(s *scenario.Spec) { s.Flows[0].Algorithm = nilAlgorithm }},
		{"invalid workload", "workload", func(s *scenario.Spec) { s.Flows[0].Workload = scenario.WorkloadSpec{} }},
	}
	for _, c := range cases {
		t.Run(c.check, func(t *testing.T) {
			s := valid
			s.Flows = []scenario.FlowSpec{valid.Flows[0]}
			c.mut(&s)
			refuses(t, s, c.fragment)
		})
	}
}

// TestRunErrors: an empty spec, a queue factory's failure and a queue kind
// that builds no queue surface from the run as errors.
func TestRunErrors(t *testing.T) {
	if _, err := (scenario.Runner{}).RunOne(scenario.Spec{}); err == nil {
		t.Error("empty spec accepted")
	}
	// An XCP router that is given no rate to advertise fails to build, and
	// the failure must surface from the run.
	reg := scenario.Default().Clone()
	if err := reg.RegisterQueue("xcp-blind", func(q scenario.QueueSpec, env scenario.QueueEnv) (netsim.Queue, error) {
		return aqm.NewXCPQueue(env.Engine, 1000, 0)
	}); err != nil {
		t.Fatal(err)
	}
	s := dumbbell(1e6, "xcp-blind", 1000, 1, flows(1, "newreno", 100))
	if _, err := (scenario.Runner{Registry: reg, Workers: 1}).RunOne(s); err == nil || !strings.Contains(err.Error(), "capacity") {
		t.Errorf("XCP without capacity estimate: %v", err)
	}
	if err := reg.RegisterQueue("nothing", func(scenario.QueueSpec, scenario.QueueEnv) (netsim.Queue, error) {
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	s.Queue.Kind = "nothing"
	if _, err := (scenario.Runner{Registry: reg, Workers: 1}).RunOne(s); err == nil || !strings.Contains(err.Error(), "built no queue") {
		t.Errorf("a queue kind that builds no queue: %v", err)
	}
}

func TestRunNewRenoFillsDumbbell(t *testing.T) {
	res := run(t, dumbbell(15e6, scenario.QueueDropTail, 1000, 20, flows(1, "newreno", 150)), 1)
	if len(res.Flows) != 1 {
		t.Fatal("flow count")
	}
	m := res.Flows[0].Metrics
	if m.Mbps() < 10 {
		t.Errorf("single NewReno flow achieved only %.2f Mbps of 15 Mbps", m.Mbps())
	}
	if m.Mbps() > 15.5 {
		t.Errorf("throughput %.2f exceeds link rate", m.Mbps())
	}
	if m.MinRTT < 0.150 || m.MinRTT > 0.152 {
		t.Errorf("minRTT = %v", m.MinRTT)
	}
	if m.OnDuration < 19 {
		t.Errorf("on duration = %v", m.OnDuration)
	}
	if res.Flows[0].Algorithm != "newreno" {
		t.Error("algorithm name")
	}
	if res.Offered != res.Delivered+res.Dropped+int64(0) && res.Offered < res.Delivered {
		t.Error("packet conservation")
	}
}

func TestRunFairnessAmongIdenticalSenders(t *testing.T) {
	res := run(t, dumbbell(15e6, scenario.QueueDropTail, 1000, 30, flows(4, "newreno", 150)), 2)
	var total float64
	for _, f := range res.Flows {
		total += f.Metrics.Mbps()
	}
	if total < 10 || total > 15.5 {
		t.Errorf("aggregate throughput %.2f Mbps", total)
	}
	// No sender should be starved outright.
	for i, f := range res.Flows {
		if f.Metrics.Mbps() < 0.5 {
			t.Errorf("flow %d starved: %.2f Mbps", i, f.Metrics.Mbps())
		}
	}
}

func TestRunVegasKeepsQueuesSmallerThanCubic(t *testing.T) {
	vres := run(t, dumbbell(15e6, scenario.QueueDropTail, 1000, 30, flows(4, "vegas", 150)), 3)
	cres := run(t, dumbbell(15e6, scenario.QueueDropTail, 1000, 30, flows(4, "cubic", 150)), 3)
	var vDelay, cDelay float64
	for i := range vres.Flows {
		vDelay += vres.Flows[i].Metrics.QueueingDelayMs()
		cDelay += cres.Flows[i].Metrics.QueueingDelayMs()
	}
	if vDelay >= cDelay {
		t.Errorf("Vegas queueing delay (%.1f ms total) should be below Cubic's (%.1f ms total)", vDelay, cDelay)
	}
}

func TestRunXCPQueueGivesHighThroughputLowLoss(t *testing.T) {
	res := run(t, dumbbell(15e6, scenario.QueueXCP, 1000, 20, flows(4, "xcp", 150)), 4)
	var total float64
	var losses int64
	for _, f := range res.Flows {
		total += f.Metrics.Mbps()
		losses += f.Transport.LossEvents
	}
	if total < 8 {
		t.Errorf("XCP aggregate throughput %.2f Mbps too low", total)
	}
	if losses > 20 {
		t.Errorf("XCP suffered %d loss events; the router should prevent congestion", losses)
	}
}

func TestRunDCTCPOverECNQueue(t *testing.T) {
	s := dumbbell(100e6, scenario.QueueECN, 1000, 10, flows(8, "dctcp", 4))
	s.Queue.ECNThresholdPackets = 65
	res := run(t, s, 5)
	var total float64
	for _, f := range res.Flows {
		total += f.Metrics.Mbps()
	}
	if total < 50 {
		t.Errorf("DCTCP aggregate %.2f Mbps of 100 Mbps", total)
	}
	// DCTCP's whole point: queueing delay stays small (ECN, not buffer fill).
	for _, f := range res.Flows {
		if f.Metrics.QueueingDelayMs() > 20 {
			t.Errorf("DCTCP queueing delay %.2f ms too large", f.Metrics.QueueingDelayMs())
		}
	}
}

func TestRunRemySenderOnDesignRange(t *testing.T) {
	// The initial single-rule RemyCC (§4.3: m=1, b=1, r=0.01 ms) is
	// intentionally over-aggressive — it overloads the bottleneck, builds a
	// standing queue and loses heavily. A hand-tuned single rule with a 2 ms
	// pacing floor keeps the aggregate offered load under the link rate and
	// must therefore deliver high throughput with tiny queueing delay. The
	// gap between the two is exactly what the Remy optimizer exploits.
	defaultTree := core.DefaultWhiskerTree()
	pacedTree := core.NewWhiskerTree(core.Action{WindowMultiple: 1, WindowIncrement: 1, IntersendMs: 2})

	runTree := func(tree *core.WhiskerTree) harness.Result {
		f := flows(2, "remy", 150)
		f.Algorithm = func() cc.Algorithm { return core.NewSender(tree) }
		return run(t, dumbbell(15e6, scenario.QueueDropTail, 1000, 20, f), 6)
	}

	defRes := runTree(defaultTree)
	var defTotal float64
	for _, f := range defRes.Flows {
		defTotal += f.Metrics.Mbps()
		if f.Algorithm != "remy" {
			t.Error("algorithm name")
		}
	}
	if defTotal <= 0.5 {
		t.Errorf("default RemyCC delivered almost nothing: %.2f Mbps", defTotal)
	}

	pacedRes := runTree(pacedTree)
	var pacedTotal, pacedDelay float64
	for _, f := range pacedRes.Flows {
		pacedTotal += f.Metrics.Mbps()
		pacedDelay += f.Metrics.QueueingDelayMs()
	}
	if pacedTotal < 9 {
		t.Errorf("paced RemyCC aggregate %.2f Mbps too low", pacedTotal)
	}
	if pacedDelay/2 > 30 {
		t.Errorf("paced RemyCC mean queueing delay %.1f ms too high", pacedDelay/2)
	}
	if pacedTotal <= defTotal {
		t.Errorf("paced rule (%.2f Mbps) should outperform the default rule (%.2f Mbps) in goodput", pacedTotal, defTotal)
	}
}

func TestRunDeterministicAcrossCalls(t *testing.T) {
	w := scenario.ByBytesWorkload(scenario.ExponentialDist(100e3), scenario.ExponentialDist(0.5))
	s := dumbbell(10e6, scenario.QueueDropTail, 500, 10,
		scenario.FlowSpec{Scheme: "cubic", RTTMs: 100, Workload: w},
		scenario.FlowSpec{Scheme: "newreno", RTTMs: 100, Workload: w})
	a := run(t, s, 42)
	b := run(t, s, 42)
	for i := range a.Flows {
		if a.Flows[i].Metrics.ThroughputBps != b.Flows[i].Metrics.ThroughputBps ||
			a.Flows[i].Metrics.AvgRTT != b.Flows[i].Metrics.AvgRTT ||
			a.Flows[i].Transport.PacketsSent != b.Flows[i].Transport.PacketsSent {
			t.Fatalf("run not deterministic for flow %d", i)
		}
	}
	c := run(t, s, 43)
	same := true
	for i := range a.Flows {
		if a.Flows[i].Transport.PacketsSent != c.Flows[i].Transport.PacketsSent {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical runs (suspicious)")
	}
}

func TestRunOnOffWorkloadAccounting(t *testing.T) {
	res := run(t, dumbbell(10e6, scenario.QueueDropTail, 1000, 60, scenario.FlowSpec{
		Scheme: "newreno", RTTMs: 100,
		Workload: scenario.ByTimeWorkload(scenario.ExponentialDist(1), scenario.ExponentialDist(1)),
	}), 7)
	f := res.Flows[0]
	if f.OnPeriods < 10 {
		t.Errorf("only %d on periods in 60 s with 1 s means", f.OnPeriods)
	}
	if f.Metrics.OnDuration <= 0 || f.Metrics.OnDuration >= 60 {
		t.Errorf("on duration = %v", f.Metrics.OnDuration)
	}
	duty := f.Metrics.OnDuration / 60
	if math.Abs(duty-0.5) > 0.25 {
		t.Errorf("duty cycle = %v, expected around 0.5", duty)
	}
	if f.Metrics.BytesAcked == 0 {
		t.Error("no bytes delivered")
	}
}

func TestRunTraceDrivenScenario(t *testing.T) {
	// A sparse handmade trace: throughput is bounded by the trace's delivery
	// opportunities regardless of the congestion controller.
	s := dumbbell(0, scenario.QueueDropTail, 1000, 10, flows(2, "cubic", 50))
	for ms := 0; ms < 10000; ms += 2 { // one packet every 2 ms = 6 Mbps
		s.Link.Trace = append(s.Link.Trace, sim.Time(ms)*sim.Millisecond)
	}
	res := run(t, s, 8)
	var total float64
	for _, f := range res.Flows {
		total += f.Metrics.Mbps()
	}
	if total > 6.2 {
		t.Errorf("aggregate %.2f Mbps exceeds the trace capacity of 6 Mbps", total)
	}
	if total < 3 {
		t.Errorf("aggregate %.2f Mbps suspiciously low for a loaded trace link", total)
	}
}

func TestRunOnDeliverHook(t *testing.T) {
	count := 0
	s := dumbbell(10e6, scenario.QueueDropTail, 100, 2, flows(1, "newreno", 50))
	s.OnDeliver = func(p *netsim.Packet, now sim.Time) { count++ }
	run(t, s, 9)
	if count == 0 {
		t.Error("OnDeliver hook never fired")
	}
}
