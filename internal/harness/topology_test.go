package harness_test

import (
	"testing"

	"repro/internal/aqm"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/scenario"
)

// parkingLot is the canonical two-bottleneck parking lot at 10 and 6 Mbps
// times scale, with 250-packet buffers: a long flow crosses both hops while
// one cross flow loads each hop, all always on, for five seconds.
func parkingLot(scheme string, scale float64) scenario.Spec {
	return scenario.ParkingLotSpec(scenario.FamilyConfig{Scheme: scheme, Workload: alwaysOn(),
		DurationSeconds: 5, RateScale: scale, BufferPackets: 250})
}

// twoWay is a two-node topology whose flows go out over fwd and may come back
// over rev.
func twoWay(fwd, rev scenario.TopoLinkSpec, fs ...scenario.FlowSpec) scenario.Spec {
	fwd.From, fwd.To, rev.From, rev.To = "a", "b", "b", "a"
	s := scenario.New(scenario.WithDuration(5), scenario.WithTopology(scenario.TopologySpec{
		Nodes: []scenario.NodeSpec{{Name: "a"}, {Name: "b"}},
		Links: []scenario.TopoLinkSpec{fwd, rev},
	}))
	s.Flows = fs
	return s
}

// TestParkingLotConservation checks flow conservation on the parking lot: the
// flows crossing each bottleneck cannot jointly exceed its rate, and every
// flow actually moves data.
func TestParkingLotConservation(t *testing.T) {
	res := run(t, parkingLot("newreno", 1), 7)
	if len(res.Flows) != 3 {
		t.Fatalf("got %d flows", len(res.Flows))
	}
	long := res.Flows[0].Metrics.ThroughputBps
	cross1 := res.Flows[1].Metrics.ThroughputBps
	cross2 := res.Flows[2].Metrics.ThroughputBps
	for i, tput := range []float64{long, cross1, cross2} {
		if tput <= 0 {
			t.Errorf("flow %d throughput = %v, want > 0", i, tput)
		}
	}
	// Conservation at each traversed bottleneck (small slack for edge effects
	// of measuring goodput over the on-time window).
	if sum := long + cross1; sum > 10e6*1.02 {
		t.Errorf("hop1 throughput sum %.0f exceeds link rate 10e6", sum)
	}
	if sum := long + cross2; sum > 6e6*1.02 {
		t.Errorf("hop2 throughput sum %.0f exceeds link rate 6e6", sum)
	}
	// The long flow is limited by the tighter of the two bottlenecks.
	if long > 6e6*1.02 {
		t.Errorf("long flow %.0f exceeds the narrow bottleneck", long)
	}
	if len(res.Links) != 2 || res.Links[0].Name != "hop1" || res.Links[1].Name != "hop2" {
		t.Fatalf("per-link results: %+v", res.Links)
	}
	for _, l := range res.Links {
		if l.Delivered == 0 {
			t.Errorf("link %s delivered nothing", l.Name)
		}
	}
}

// TestTopologyValidation: a run refuses a world whose links, routes or fault
// schedules are malformed — the spec's validation catches these — and a link
// whose queue kind no registry entry builds, which the build catches.
func TestTopologyValidation(t *testing.T) {
	base := parkingLot("newreno", 1)
	topo := func(mut func(*scenario.TopologySpec)) scenario.Spec {
		s := base
		tp := *base.Topology
		tp.Links = append([]scenario.TopoLinkSpec{}, base.Topology.Links...)
		mut(&tp)
		s.Topology = &tp
		return s
	}
	flow0 := func(mut func(*scenario.FlowSpec)) scenario.Spec {
		s := base
		s.Flows = append([]scenario.FlowSpec{}, base.Flows...)
		mut(&s.Flows[0])
		return s
	}
	refuses(t, topo(func(tp *scenario.TopologySpec) { tp.Links[1].Name = "hop1" }), "twice")
	refuses(t, topo(func(tp *scenario.TopologySpec) { tp.Links[1].Name = "" }), "no name")
	refuses(t, topo(func(tp *scenario.TopologySpec) { tp.Links[1].DelayMs = -1 }), "negative delay")
	refuses(t, topo(func(tp *scenario.TopologySpec) { tp.Links = nil }), "no links")
	refuses(t, topo(func(tp *scenario.TopologySpec) { tp.Links[0].Queue.Kind = "teleport" }), "unknown queue kind")
	refuses(t, flow0(func(f *scenario.FlowSpec) { f.Path = nil }), "no path")
	refuses(t, flow0(func(f *scenario.FlowSpec) { f.Path = []string{"hop1", "nope"} }), "path references unknown link")
	refuses(t, flow0(func(f *scenario.FlowSpec) { f.ReversePath = []string{"nope"} }), "reverse path references unknown link")

	// Fault schedules must be well-formed and attach to a link the world has.
	faulty := func(link string, sched faults.Schedule) scenario.Spec {
		s := base
		s.Faults = &scenario.FaultsSpec{Links: []scenario.LinkFaultSpec{{Link: link, Schedule: sched}}}
		return s
	}
	outage := faults.Schedule{Outages: []faults.Outage{{StartS: 1, DurationS: 1}}}
	refuses(t, faulty("hop1", faults.Schedule{Outages: []faults.Outage{{StartS: 1, DurationS: -1}}}), "duration_s")
	refuses(t, faulty("nope", outage), "unknown link")
	refuses(t, faulty("", outage), "must name a topology link")

	// A dumbbell flow routed over a link the world does not define is
	// rejected like any other unknown route.
	s := dumbbell(1e6, scenario.QueueDropTail, 1000, 1, flows(1, "newreno", 10))
	s.Flows[0].Path = []string{"hop1"}
	refuses(t, s, "no topology")
}

// TestAsymmetricReverseSlowsFlow checks that routing acknowledgments over a
// slow reverse link materially reduces throughput versus the pure-delay
// return path, all else equal — the ACK clock is really crossing the queue.
func TestAsymmetricReverseSlowsFlow(t *testing.T) {
	build := func(reverse bool) scenario.Spec {
		f := scenario.FlowSpec{Scheme: "newreno", RTTMs: 40, Workload: alwaysOn(), Path: []string{"fwd"}}
		if reverse {
			f.ReversePath = []string{"rev"}
		}
		return twoWay(
			scenario.TopoLinkSpec{Name: "fwd", RateBps: 10e6, DelayMs: 5,
				Queue: scenario.QueueSpec{Kind: scenario.QueueDropTail, CapacityPackets: 500}},
			// 40-byte acks over 100 kbps: 312 acks/s, far below the ~833
			// packets/s the forward link can carry.
			scenario.TopoLinkSpec{Name: "rev", RateBps: 1e5, DelayMs: 5,
				Queue: scenario.QueueSpec{Kind: scenario.QueueDropTail, CapacityPackets: 50}},
			f)
	}
	fast := run(t, build(false), 3)
	slow := run(t, build(true), 3)
	ff := fast.Flows[0].Metrics.ThroughputBps
	sf := slow.Flows[0].Metrics.ThroughputBps
	if sf <= 0 || ff <= 0 {
		t.Fatalf("throughputs: fast %v slow %v", ff, sf)
	}
	if sf > ff*0.75 {
		t.Errorf("ack-limited flow (%.0f bps) not materially slower than pure-delay reverse path (%.0f bps)", sf, ff)
	}
	// The ack-limited flow cannot deliver faster than one MTU per ack
	// opportunity: 312.5 acks/s * 1500 B * 8 = 3.75 Mbps.
	if sf > 3.75e6*1.05 {
		t.Errorf("ack-limited flow %.0f bps exceeds the ack-clock ceiling", sf)
	}
}

// TestAcksDroppedCountsDequeueTimeDrops: acks that a CoDel reverse queue
// drops at dequeue time must be counted in Result.AcksDropped, not only the
// enqueue-time tail drops. The reverse queue, a registered test kind, is
// given ample capacity so every drop is CoDel's.
func TestAcksDroppedCountsDequeueTimeDrops(t *testing.T) {
	reg := scenario.Default().Clone()
	if err := reg.RegisterQueue("codel-ample", func(scenario.QueueSpec, scenario.QueueEnv) (netsim.Queue, error) {
		return aqm.NewSfqCoDel(64, 5000)
	}); err != nil {
		t.Fatal(err)
	}
	f := scenario.FlowSpec{Scheme: "newreno", Count: 2, RTTMs: 40, Workload: alwaysOn(),
		Path: []string{"fwd"}, ReversePath: []string{"rev"}}
	s := twoWay(
		scenario.TopoLinkSpec{Name: "fwd", RateBps: 15e6, DelayMs: 5,
			Queue: scenario.QueueSpec{Kind: scenario.QueueDropTail, CapacityPackets: 500}},
		scenario.TopoLinkSpec{Name: "rev", RateBps: 3e5, DelayMs: 5, Queue: scenario.QueueSpec{Kind: "codel-ample"}},
		f)
	s.Topology.AckBytes = 40
	s.DurationSeconds = 10
	s.Seed = 3
	results, err := scenario.Runner{Registry: reg, Workers: 1}.RunOne(s)
	if err != nil {
		t.Fatal(err)
	}
	res := results[0].Res
	if res.AcksDropped == 0 {
		t.Error("CoDel dequeue-time ack drops not counted in AcksDropped")
	}
	// They are the same drops the reverse queue reports.
	if res.Links[1].Drops < res.AcksDropped {
		t.Errorf("reverse queue drops %d < AcksDropped %d", res.Links[1].Drops, res.AcksDropped)
	}
}

// TestTopologyDeterminism: identical runs produce identical counters.
func TestTopologyDeterminism(t *testing.T) {
	s := parkingLot("newreno", 0.8)
	a := run(t, s, 11)
	b := run(t, s, 11)
	if a.Offered != b.Offered || a.Delivered != b.Delivered || a.Dropped != b.Dropped {
		t.Errorf("bottleneck counters differ: %+v vs %+v", a, b)
	}
	for i := range a.Flows {
		if a.Flows[i].Transport != b.Flows[i].Transport {
			t.Errorf("flow %d transport counters differ", i)
		}
	}
}

// TestWarmSessionAllocsNothingForLanes pins that the engine lanes the network
// and its links take anew at every reset cost a warm run nothing: their rings
// survive the engine's Reset. A warm parking-lot session (hop-to-hop, last-hop
// and acknowledgment lanes, two service lanes) allocates its handful of result
// slices and no more, however many packets the run carries.
func TestWarmSessionAllocsNothingForLanes(t *testing.T) {
	warmAllocs := func(seconds float64) (allocs float64, offered int64) {
		s := parkingLot("newreno", 2)
		s.DurationSeconds = seconds
		var ss scenario.Session
		if err := ss.Rebuild(nil, &s, 0); err != nil {
			t.Fatal(err)
		}
		run := func() {
			res, err := ss.Run(1)
			if err != nil {
				t.Fatal(err)
			}
			offered = res.Offered
		}
		run() // grow slabs, pools and lane rings
		return testing.AllocsPerRun(3, run), offered
	}
	short, shortPkts := warmAllocs(2)
	long, longPkts := warmAllocs(6)
	t.Logf("warm run: %.0f allocs for %d packets, %.0f allocs for %d packets", short, shortPkts, long, longPkts)
	if longPkts < 2*shortPkts {
		t.Fatalf("the long run offered %d packets against %d; it must carry at least twice the traffic", longPkts, shortPkts)
	}
	if long > short+4 || short > 100 {
		t.Errorf("a warm run allocates %.0f times over 2 s and %.0f over 6 s; want the same handful", short, long)
	}
}
