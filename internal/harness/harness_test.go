package harness

import (
	"math"
	"testing"

	"repro/internal/aqm"
	"repro/internal/cc"
	"repro/internal/cc/cubic"
	"repro/internal/cc/dctcp"
	"repro/internal/cc/newreno"
	"repro/internal/cc/vegas"
	"repro/internal/cc/xcp"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/workload"
)

// alwaysOn is a workload that stays on for the whole run.
func alwaysOn() workload.Spec {
	return workload.Spec{
		Mode:    workload.ByTime,
		On:      workload.Constant{Value: 1e6},
		Off:     workload.Constant{Value: 1e6},
		StartOn: true,
	}
}

func flowsOf(n int, rttMs float64, algo func() cc.Algorithm) []FlowSpec {
	out := make([]FlowSpec, n)
	for i := range out {
		out[i] = FlowSpec{RTTMs: rttMs, Workload: alwaysOn(), NewAlgorithm: algo}
	}
	return out
}

// bottleneckPath is the route of every dumbbell flow.
var bottleneckPath = []string{netsim.BottleneckLink}

// dumbbell returns the classic single-bottleneck world as the one-link
// scenario it is: link becomes the scenario's only link, named
// netsim.BottleneckLink, and every flow and churn class of s crosses it.
func dumbbell(link LinkDef, s Scenario) Scenario {
	link.Name = netsim.BottleneckLink
	s.Links = []LinkDef{link}
	s.Flows = append([]FlowSpec(nil), s.Flows...)
	for i := range s.Flows {
		s.Flows[i].Path = bottleneckPath
	}
	s.Churn = append([]ChurnClass(nil), s.Churn...)
	for i := range s.Churn {
		s.Churn[i].Path = bottleneckPath
	}
	return s
}

func TestScenarioValidate(t *testing.T) {
	if err := (Scenario{}).Validate(); err == nil {
		t.Error("empty scenario accepted")
	}
	link := LinkDef{RateBps: 1e6, NewQueue: dropTailFactory(1000)}
	s := dumbbell(link, Scenario{
		Duration: sim.Second,
		Flows:    flowsOf(1, 100, func() cc.Algorithm { return newreno.New() }),
	})
	if err := s.Validate(); err != nil {
		t.Errorf("valid scenario rejected: %v", err)
	}
	bad := s
	bad.Duration = 0
	if bad.Validate() == nil {
		t.Error("zero duration accepted")
	}
	link.RateBps = 0
	if dumbbell(link, s).Validate() == nil {
		t.Error("missing rate accepted")
	}
	bad = s
	bad.Flows = []FlowSpec{{RTTMs: -1, Workload: alwaysOn(), NewAlgorithm: func() cc.Algorithm { return newreno.New() }, Path: bottleneckPath}}
	if bad.Validate() == nil {
		t.Error("negative RTT accepted")
	}
	bad = s
	bad.Flows = []FlowSpec{{RTTMs: 10, Workload: alwaysOn(), Path: bottleneckPath}}
	if bad.Validate() == nil {
		t.Error("missing algorithm accepted")
	}
	bad = s
	bad.Flows = []FlowSpec{{RTTMs: 10, Workload: workload.Spec{}, NewAlgorithm: func() cc.Algorithm { return newreno.New() }, Path: bottleneckPath}}
	if bad.Validate() == nil {
		t.Error("invalid workload accepted")
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run(Scenario{}, 1); err == nil {
		t.Error("invalid scenario accepted")
	}
	// A trace link gives the XCP router no rate to advertise, so its factory
	// fails; the failure must surface from Run.
	xcpNoCapacity := LinkDef{
		Trace:    []sim.Time{sim.Millisecond},
		NewQueue: func(e *sim.Engine) (netsim.Queue, error) { return aqm.NewXCPQueue(e, 1000, 0) },
	}
	s := dumbbell(xcpNoCapacity, Scenario{
		Duration: sim.Second,
		Flows:    flowsOf(1, 100, func() cc.Algorithm { return newreno.New() }),
	})
	if _, err := Run(s, 1); err == nil {
		t.Error("XCP without capacity estimate accepted")
	}
	nilAlgo := dumbbell(LinkDef{RateBps: 1e6, NewQueue: dropTailFactory(1000)}, Scenario{
		Duration: sim.Second,
		Flows:    []FlowSpec{{RTTMs: 10, Workload: alwaysOn(), NewAlgorithm: func() cc.Algorithm { return nil }}},
	})
	if _, err := Run(nilAlgo, 1); err == nil {
		t.Error("nil algorithm accepted")
	}
}

func TestRunNewRenoFillsDumbbell(t *testing.T) {
	s := dumbbell(LinkDef{RateBps: 15e6, NewQueue: dropTailFactory(1000)}, Scenario{
		Duration: 20 * sim.Second,
		Flows:    flowsOf(1, 150, func() cc.Algorithm { return newreno.New() }),
	})
	res, err := Run(s, 1)
	if err != nil {
		t.Fatal(err)
	}
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
	s := dumbbell(LinkDef{RateBps: 15e6, NewQueue: dropTailFactory(1000)}, Scenario{
		Duration: 30 * sim.Second,
		Flows:    flowsOf(4, 150, func() cc.Algorithm { return newreno.New() }),
	})
	res, err := Run(s, 2)
	if err != nil {
		t.Fatal(err)
	}
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
	build := func(algo func() cc.Algorithm) Scenario {
		return dumbbell(LinkDef{RateBps: 15e6, NewQueue: dropTailFactory(1000)}, Scenario{
			Duration: 30 * sim.Second,
			Flows:    flowsOf(4, 150, algo),
		})
	}
	vegasScenario := build(func() cc.Algorithm { return vegas.New() })
	cubicScenario := build(func() cc.Algorithm { return cubic.New() })

	vres, err := Run(vegasScenario, 3)
	if err != nil {
		t.Fatal(err)
	}
	cres, err := Run(cubicScenario, 3)
	if err != nil {
		t.Fatal(err)
	}
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
	xcpQueue := func(e *sim.Engine) (netsim.Queue, error) { return aqm.NewXCPQueue(e, 1000, 15e6) }
	s := dumbbell(LinkDef{RateBps: 15e6, NewQueue: xcpQueue}, Scenario{
		Duration: 20 * sim.Second,
		Flows:    flowsOf(4, 150, func() cc.Algorithm { return xcp.New(netsim.MTU) }),
	})
	res, err := Run(s, 4)
	if err != nil {
		t.Fatal(err)
	}
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
	ecnQueue := func(*sim.Engine) (netsim.Queue, error) { return aqm.NewECNMarking(1000, 65) }
	s := dumbbell(LinkDef{RateBps: 100e6, NewQueue: ecnQueue}, Scenario{
		Duration: 10 * sim.Second,
		Flows:    flowsOf(8, 4, func() cc.Algorithm { return dctcp.New() }),
	})
	res, err := Run(s, 5)
	if err != nil {
		t.Fatal(err)
	}
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

	run := func(tree *core.WhiskerTree) Result {
		s := dumbbell(LinkDef{RateBps: 15e6, NewQueue: dropTailFactory(1000)}, Scenario{
			Duration: 20 * sim.Second,
			Flows:    flowsOf(2, 150, func() cc.Algorithm { return core.NewSender(tree) }),
		})
		res, err := Run(s, 6)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	defRes := run(defaultTree)
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

	pacedRes := run(pacedTree)
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
	s := dumbbell(LinkDef{RateBps: 10e6, NewQueue: dropTailFactory(500)}, Scenario{
		Duration: 10 * sim.Second,
		Flows: []FlowSpec{
			{RTTMs: 100, Workload: workload.Spec{Mode: workload.ByBytes, On: workload.Exponential{MeanValue: 100e3}, Off: workload.Exponential{MeanValue: 0.5}}, NewAlgorithm: func() cc.Algorithm { return cubic.New() }},
			{RTTMs: 100, Workload: workload.Spec{Mode: workload.ByBytes, On: workload.Exponential{MeanValue: 100e3}, Off: workload.Exponential{MeanValue: 0.5}}, NewAlgorithm: func() cc.Algorithm { return newreno.New() }},
		},
	})
	a, err := Run(s, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(s, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Flows {
		if a.Flows[i].Metrics.ThroughputBps != b.Flows[i].Metrics.ThroughputBps ||
			a.Flows[i].Metrics.AvgRTT != b.Flows[i].Metrics.AvgRTT ||
			a.Flows[i].Transport.PacketsSent != b.Flows[i].Transport.PacketsSent {
			t.Fatalf("run not deterministic for flow %d", i)
		}
	}
	c, err := Run(s, 43)
	if err != nil {
		t.Fatal(err)
	}
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
	s := dumbbell(LinkDef{RateBps: 10e6, NewQueue: dropTailFactory(1000)}, Scenario{
		Duration: 60 * sim.Second,
		Flows: []FlowSpec{{
			RTTMs: 100,
			Workload: workload.Spec{
				Mode: workload.ByTime,
				On:   workload.Exponential{MeanValue: 1},
				Off:  workload.Exponential{MeanValue: 1},
			},
			NewAlgorithm: func() cc.Algorithm { return newreno.New() },
		}},
	})
	res, err := Run(s, 7)
	if err != nil {
		t.Fatal(err)
	}
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
	var trace []sim.Time
	for ms := 0; ms < 10000; ms += 2 { // one packet every 2 ms = 6 Mbps
		trace = append(trace, sim.Time(ms)*sim.Millisecond)
	}
	s := dumbbell(LinkDef{Trace: trace, NewQueue: dropTailFactory(1000)}, Scenario{
		Duration: 10 * sim.Second,
		Flows:    flowsOf(2, 50, func() cc.Algorithm { return cubic.New() }),
	})
	res, err := Run(s, 8)
	if err != nil {
		t.Fatal(err)
	}
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
	s := dumbbell(LinkDef{RateBps: 10e6, NewQueue: dropTailFactory(100)}, Scenario{
		Duration:  2 * sim.Second,
		Flows:     flowsOf(1, 50, func() cc.Algorithm { return newreno.New() }),
		OnDeliver: func(p *netsim.Packet, now sim.Time) { count++ },
	})
	if _, err := Run(s, 9); err != nil {
		t.Fatal(err)
	}
	if count == 0 {
		t.Error("OnDeliver hook never fired")
	}
}
