package harness_test

import (
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/harness"
	"repro/internal/netsim"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// withFaults attaches a fault schedule to the link of a link/queue-form spec.
func withFaults(s scenario.Spec, sched *faults.Schedule) scenario.Spec {
	if sched != nil {
		s.Faults = &scenario.FaultsSpec{Links: []scenario.LinkFaultSpec{{Schedule: *sched}}}
	}
	return s
}

// faultDumbbell is a saturated single-bottleneck dumbbell with an optional
// fault schedule on the bottleneck.
func faultDumbbell(sched *faults.Schedule) scenario.Spec {
	return withFaults(dumbbell(10e6, scenario.QueueDropTail, 250, 7, flows(1, "newreno", 100)), sched)
}

// deliveries runs spec once with the seed and returns the times packets were
// delivered to receivers.
func deliveries(t *testing.T, spec scenario.Spec, seed int64) (harness.Result, []sim.Time) {
	t.Helper()
	var at []sim.Time
	spec.OnDeliver = func(p *netsim.Packet, now sim.Time) { at = append(at, now) }
	res := run(t, spec, seed)
	return res, at
}

func TestOutageStopsDelivery(t *testing.T) {
	sched := &faults.Schedule{Outages: []faults.Outage{{StartS: 2, DurationS: 2}}}
	res, delivered := deliveries(t, faultDumbbell(sched), 1)
	// Packets already past the link when the outage begins still propagate
	// (one-way access delay is 50 ms); after that grace window nothing may
	// arrive until the link returns at t=4s.
	graceEnd := sim.FromSeconds(2) + sim.FromMillis(100)
	var during, after int
	for _, at := range delivered {
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

	base := run(t, faultDumbbell(nil), 1)
	if res.Delivered >= base.Delivered {
		t.Errorf("outage run delivered %d >= fault-free %d", res.Delivered, base.Delivered)
	}
	if res.FaultDropped != 0 {
		t.Errorf("outage alone destroyed %d packets; outages queue, not drop", res.FaultDropped)
	}
}

func TestBurstLossDropsAndDegrades(t *testing.T) {
	sched := &faults.Schedule{Loss: &faults.GilbertElliott{PGoodBad: 0.02, PBadGood: 0.2, LossBad: 0.5}}
	res := run(t, faultDumbbell(sched), 1)
	base := run(t, faultDumbbell(nil), 1)
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
	// Link deliveries before 5s arrive by 5s + 50ms one-way; the first
	// delivery at/after 5s arrives no earlier than 5s + 50ms + extra. The
	// saturated base run streams arrivals ~1.2ms apart here.
	gapLo := sim.FromSeconds(5) + sim.FromMillis(50)
	gapHi := gapLo + sim.FromMillis(extra)
	inGap := func(sched *faults.Schedule) (n int) {
		_, arrivals := deliveries(t, faultDumbbell(sched), 1)
		for _, at := range arrivals {
			if at >= gapLo && at < gapHi {
				n++
			}
		}
		return n
	}
	if n := inGap(sched); n != 0 {
		t.Errorf("%d arrivals inside the spike-displacement gap [%v, %v)", n, gapLo, gapHi)
	}
	if n := inGap(nil); n == 0 {
		t.Error("fault-free run has no arrivals in the gap window; assertion is vacuous")
	}
}

func TestRateDroopThrottles(t *testing.T) {
	sched := &faults.Schedule{RateDroops: []faults.RateDroop{{StartS: 1, DurationS: 4, Factor: 0.25}}}
	res := run(t, faultDumbbell(sched), 1)
	base := run(t, faultDumbbell(nil), 1)
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
	s := dumbbell(0, scenario.QueueDropTail, 250, 3, flows(1, "newreno", 60))
	// One delivery opportunity per millisecond for 3 s.
	s.Link.Trace = make([]sim.Time, 3000)
	for i := range s.Link.Trace {
		s.Link.Trace[i] = sim.Time(i+1) * sim.Millisecond
	}
	s = withFaults(s, &faults.Schedule{Outages: []faults.Outage{{StartS: 1, DurationS: 1}}})
	_, delivered := deliveries(t, s, 1)
	graceEnd := sim.FromSeconds(1) + sim.FromMillis(60)
	var during, after int
	for _, at := range delivered {
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
// to faulted worlds: a reused session must replay the identical fault
// realization for the same seed, and distinct seeds must realize distinct
// fault streams.
func TestFaultSessionReuseMatchesFresh(t *testing.T) {
	sched := &faults.Schedule{
		Outages:     []faults.Outage{{StartS: 2, DurationS: 1}},
		Loss:        &faults.GilbertElliott{PGoodBad: 0.02, PBadGood: 0.2, LossBad: 0.5},
		DelaySpikes: []faults.DelaySpike{{StartS: 4, DurationS: 1, ExtraMs: 20, JitterMs: 10}},
	}
	spec := faultDumbbell(sched)
	var warm scenario.Session
	if err := warm.Rebuild(nil, &spec, 0); err != nil {
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
	if !reflect.DeepEqual(first, again) {
		t.Error("warm session replayed a different result for the same seed")
	}
	if fresh := run(t, spec, 11); !reflect.DeepEqual(first, fresh) {
		t.Error("warm session diverged from a fresh run")
	}
	if other := run(t, spec, 12); reflect.DeepEqual(first.Links, other.Links) {
		t.Error("different seeds produced identical link counters; fault streams not reseeded")
	}
}

// TestChurnOutageGenerationFencing is the churn × outage interaction
// regression: flows arriving mid-outage and flows whose packets are still in
// flight (or queued behind an outage) when they detach must keep the
// generation fencing intact — the run completes without error, completion
// accounting stays consistent, and the whole thing is deterministic.
func TestChurnOutageGenerationFencing(t *testing.T) {
	spec := withFaults(dumbbell(10e6, scenario.QueueDropTail, 100, 5), &faults.Schedule{
		Outages: []faults.Outage{{StartS: 1, DurationS: 1}, {StartS: 3, DurationS: 0.5}},
		Loss:    &faults.GilbertElliott{PGoodBad: 0.05, PBadGood: 0.3, LossBad: 0.8},
	})
	spec.Churn = &scenario.ChurnSpec{MaxLiveFlows: 16, Classes: []scenario.ChurnClassSpec{{
		Scheme:       "newreno",
		RTTMs:        60,
		Interarrival: scenario.ConstantDist(0.05),
		Size:         scenario.ConstantDist(20e3),
	}}}
	res := run(t, spec, 7)
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
	if again := run(t, spec, 7); !reflect.DeepEqual(res, again) {
		t.Error("churn × outage run is not deterministic")
	}
}
