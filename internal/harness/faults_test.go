package harness

import (
	"reflect"
	"testing"

	"repro/internal/cc"
	"repro/internal/cc/newreno"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/workload"
)

// faultDumbbell is a saturated single-bottleneck dumbbell with an optional
// fault schedule on the bottleneck.
func faultDumbbell(sched *faults.Schedule) Scenario {
	return dumbbell(LinkDef{RateBps: 10e6, NewQueue: dropTailFactory(250), Faults: sched}, Scenario{
		Duration: 7 * sim.Second,
		Flows: []FlowSpec{{
			RTTMs:        100,
			Workload:     alwaysOn(),
			NewAlgorithm: func() cc.Algorithm { return newreno.New() },
		}},
	})
}

func TestOutageStopsDelivery(t *testing.T) {
	sched := &faults.Schedule{Outages: []faults.Outage{{StartS: 2, DurationS: 2}}}
	s := faultDumbbell(sched)
	var deliveries []sim.Time
	s.OnDeliver = func(p *netsim.Packet, now sim.Time) { deliveries = append(deliveries, now) }
	res, err := Run(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Packets already past the link when the outage begins still propagate
	// (one-way access delay is 50 ms); after that grace window nothing may
	// arrive until the link returns at t=4s.
	graceEnd := sim.FromSeconds(2) + sim.FromMillis(100)
	var during, after int
	for _, at := range deliveries {
		if at >= graceEnd && at < sim.FromSeconds(4) {
			during++
		}
		if at >= sim.FromSeconds(4) {
			after++
		}
	}
	if during != 0 {
		t.Errorf("%d packets delivered during the outage", during)
	}
	if after == 0 {
		t.Error("no packets delivered after the outage ended; link never resumed")
	}

	base, err := Run(faultDumbbell(nil), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered >= base.Delivered {
		t.Errorf("outage run delivered %d >= fault-free %d", res.Delivered, base.Delivered)
	}
	if res.FaultDropped != 0 {
		t.Errorf("outage alone destroyed %d packets; outages queue, not drop", res.FaultDropped)
	}
}

func TestBurstLossDropsAndDegrades(t *testing.T) {
	sched := &faults.Schedule{Loss: &faults.GilbertElliott{PGoodBad: 0.02, PBadGood: 0.2, LossBad: 0.5}}
	res, err := Run(faultDumbbell(sched), 1)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Run(faultDumbbell(nil), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultDropped == 0 {
		t.Fatal("burst-loss run destroyed no packets")
	}
	if len(res.Links) != 1 || res.Links[0].FaultDrops != res.FaultDropped {
		t.Errorf("per-link fault drops %+v inconsistent with total %d", res.Links, res.FaultDropped)
	}
	if res.Flows[0].Transport.LossEvents == 0 {
		t.Error("transport observed no loss events under burst loss")
	}
	if res.Flows[0].Transport.BytesAcked >= base.Flows[0].Transport.BytesAcked {
		t.Errorf("burst-loss goodput %d >= fault-free %d", res.Flows[0].Transport.BytesAcked, base.Flows[0].Transport.BytesAcked)
	}
}

// TestDelaySpikeShiftsArrivals pins the extra-propagation-delay hook via
// receiver arrival times: a spike starting at t=5s — inside the flow's
// steady-state streaming regime — displaces every subsequent arrival by at
// least the extra delay, opening a gap the saturated fault-free run never
// shows. (Transport.MaxRTT is deliberately not asserted: a sudden +80 ms
// spike fires the RTO, and Karn's rule then excludes the spiked samples from
// RTT stats.)
func TestDelaySpikeShiftsArrivals(t *testing.T) {
	extra := 80.0
	sched := &faults.Schedule{DelaySpikes: []faults.DelaySpike{{StartS: 5, DurationS: 1.5, ExtraMs: extra, JitterMs: 20}}}
	run := func(sched *faults.Schedule) []sim.Time {
		t.Helper()
		s := faultDumbbell(sched)
		var arrivals []sim.Time
		s.OnDeliver = func(p *netsim.Packet, now sim.Time) { arrivals = append(arrivals, now) }
		if _, err := Run(s, 1); err != nil {
			t.Fatal(err)
		}
		return arrivals
	}
	// Link deliveries before 5s arrive by 5s + 50ms one-way; the first
	// delivery at/after 5s arrives no earlier than 5s + 50ms + extra. The
	// saturated base run streams arrivals ~1.2ms apart here.
	gapLo := sim.FromSeconds(5) + sim.FromMillis(50)
	gapHi := gapLo + sim.FromMillis(extra)
	inGap := func(arrivals []sim.Time) (n int) {
		for _, at := range arrivals {
			if at >= gapLo && at < gapHi {
				n++
			}
		}
		return n
	}
	if n := inGap(run(sched)); n != 0 {
		t.Errorf("%d arrivals inside the spike-displacement gap [%v, %v)", n, gapLo, gapHi)
	}
	if n := inGap(run(nil)); n == 0 {
		t.Error("fault-free run has no arrivals in the gap window; assertion is vacuous")
	}
}

func TestRateDroopThrottles(t *testing.T) {
	sched := &faults.Schedule{RateDroops: []faults.RateDroop{{StartS: 1, DurationS: 4, Factor: 0.25}}}
	res, err := Run(faultDumbbell(sched), 1)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Run(faultDumbbell(nil), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Four of seven seconds at quarter rate: delivery must drop well below
	// the fault-free run but stay well above zero.
	if res.Delivered >= base.Delivered*8/10 {
		t.Errorf("droop run delivered %d, want well under fault-free %d", res.Delivered, base.Delivered)
	}
	if res.Delivered < base.Delivered/4 {
		t.Errorf("droop run delivered %d, implausibly low vs fault-free %d", res.Delivered, base.Delivered)
	}
}

// TestTraceLinkOutageWastesOpportunities pins outage gating on trace-driven
// links: opportunities inside the outage are wasted even with a full queue.
func TestTraceLinkOutageWastesOpportunities(t *testing.T) {
	// One delivery opportunity per millisecond for 3 s.
	trace := make([]sim.Time, 3000)
	for i := range trace {
		trace[i] = sim.Time(i+1) * sim.Millisecond
	}
	s := dumbbell(LinkDef{
		Trace:    trace,
		NewQueue: dropTailFactory(250),
		Faults:   &faults.Schedule{Outages: []faults.Outage{{StartS: 1, DurationS: 1}}},
	}, Scenario{
		Duration: 3 * sim.Second,
		Flows: []FlowSpec{{
			RTTMs:        60,
			Workload:     alwaysOn(),
			NewAlgorithm: func() cc.Algorithm { return newreno.New() },
		}},
	})
	var deliveries []sim.Time
	s.OnDeliver = func(p *netsim.Packet, now sim.Time) { deliveries = append(deliveries, now) }
	if _, err := Run(s, 1); err != nil {
		t.Fatal(err)
	}
	graceEnd := sim.FromSeconds(1) + sim.FromMillis(60)
	var during, after int
	for _, at := range deliveries {
		if at >= graceEnd && at < sim.FromSeconds(2) {
			during++
		}
		if at >= sim.FromSeconds(2) {
			after++
		}
	}
	if during != 0 {
		t.Errorf("%d packets delivered during a trace-link outage", during)
	}
	if after == 0 {
		t.Error("trace link never resumed after the outage")
	}
}

// TestFaultSessionReuseMatchesFresh extends the warm-start equality guarantee
// to faulted scenarios: a reused session must replay the identical fault
// realization for the same seed, and distinct seeds must realize distinct
// fault streams.
func TestFaultSessionReuseMatchesFresh(t *testing.T) {
	sched := &faults.Schedule{
		Outages:     []faults.Outage{{StartS: 2, DurationS: 1}},
		Loss:        &faults.GilbertElliott{PGoodBad: 0.02, PBadGood: 0.2, LossBad: 0.5},
		DelaySpikes: []faults.DelaySpike{{StartS: 4, DurationS: 1, ExtraMs: 20, JitterMs: 10}},
	}
	spec := faultDumbbell(sched)
	warm, err := NewSession(spec)
	if err != nil {
		t.Fatal(err)
	}
	first, err := warm.Run(11)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Run(12); err != nil { // interleave another seed
		t.Fatal(err)
	}
	again, err := warm.Run(11)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Run(spec, 11)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, again) {
		t.Error("warm session replayed a different result for the same seed")
	}
	if !reflect.DeepEqual(first, fresh) {
		t.Error("warm session diverged from a fresh run")
	}
	other, err := Run(spec, 12)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(first.Links, other.Links) {
		t.Error("different seeds produced identical link counters; fault streams not reseeded")
	}
}

// TestChurnOutageGenerationFencing is the churn × outage interaction
// regression: flows arriving mid-outage and flows whose packets are still in
// flight (or queued behind an outage) when they detach must keep the
// generation fencing intact — the run completes without error, completion
// accounting stays consistent, and the whole thing is deterministic.
func TestChurnOutageGenerationFencing(t *testing.T) {
	sched := &faults.Schedule{
		Outages: []faults.Outage{{StartS: 1, DurationS: 1}, {StartS: 3, DurationS: 0.5}},
		Loss:    &faults.GilbertElliott{PGoodBad: 0.05, PBadGood: 0.3, LossBad: 0.8},
	}
	spec := dumbbell(LinkDef{RateBps: 10e6, NewQueue: dropTailFactory(100), Faults: sched}, Scenario{
		Duration:     5 * sim.Second,
		MaxLiveFlows: 16,
		Churn: []ChurnClass{{
			Interarrival: workload.Constant{Value: 0.05},
			Size:         workload.Constant{Value: 20e3},
			RTTMs:        60,
			NewAlgorithm: func() cc.Algorithm { return newreno.New() },
		}},
	})
	run := func() Result {
		t.Helper()
		res, err := Run(spec, 7)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run()
	c := res.Churn[0]
	if c.Spawned == 0 {
		t.Fatal("no churn arrivals spawned")
	}
	if c.Completed > c.Spawned {
		t.Fatalf("completed %d > spawned %d", c.Completed, c.Spawned)
	}
	if c.FCT.Count != c.Completed {
		t.Fatalf("FCT count %d != completed %d — an FCT was recorded for a dead flow", c.FCT.Count, c.Completed)
	}
	if c.Completed > 0 && (c.FCTMinUs <= 0 || c.FCTMaxUs < c.FCTMinUs) {
		t.Fatalf("implausible FCT bounds: min %dus max %dus", c.FCTMinUs, c.FCTMaxUs)
	}
	// Arrivals kept coming through the outage while nothing completed, so the
	// 16-flow cap must have rejected some of the 20/s arrival stream.
	if c.Rejected == 0 {
		t.Error("expected cap-pressure rejections with arrivals continuing through the outage")
	}
	if res.FaultDropped == 0 {
		t.Error("burst loss destroyed no packets in the churn run")
	}
	// Determinism across fresh sessions (worker-count invariance of the same
	// property is pinned by the golden fault fixture).
	if again := run(); !reflect.DeepEqual(res, again) {
		t.Error("churn × outage run is not deterministic")
	}
}
