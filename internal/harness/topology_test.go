package harness

import (
	"testing"

	"repro/internal/aqm"
	"repro/internal/cc"
	"repro/internal/cc/newreno"
	"repro/internal/netsim"
	"repro/internal/sim"
)

func dropTailFactory(capacity int) func(*sim.Engine) (netsim.Queue, error) {
	return func(*sim.Engine) (netsim.Queue, error) { return aqm.NewDropTail(capacity) }
}

// parkingLotScenario is the canonical two-bottleneck parking lot: a long flow
// crosses both links while one cross flow loads each link.
func parkingLotScenario(rate1, rate2 float64, newAlgo func() cc.Algorithm) Scenario {
	s := Scenario{
		Links: []LinkDef{
			{Name: "hop1", RateBps: rate1, DelayMs: 10, NewQueue: dropTailFactory(250)},
			{Name: "hop2", RateBps: rate2, DelayMs: 10, NewQueue: dropTailFactory(250)},
		},
		Duration: 5 * sim.Second,
		Flows: []FlowSpec{
			{RTTMs: 40, Workload: alwaysOn(), NewAlgorithm: newAlgo, Path: []string{"hop1", "hop2"}},
			{RTTMs: 40, Workload: alwaysOn(), NewAlgorithm: newAlgo, Path: []string{"hop1"}},
			{RTTMs: 40, Workload: alwaysOn(), NewAlgorithm: newAlgo, Path: []string{"hop2"}},
		},
	}
	return s
}

// TestParkingLotConservation checks flow conservation on the parking lot: the
// flows crossing each bottleneck cannot jointly exceed its rate, and every
// flow actually moves data.
func TestParkingLotConservation(t *testing.T) {
	s := parkingLotScenario(10e6, 6e6, func() cc.Algorithm { return newreno.New() })
	res, err := Run(s, 7)
	if err != nil {
		t.Fatal(err)
	}
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

// TestTopologyValidation exercises the topology-specific validation errors.
func TestTopologyValidation(t *testing.T) {
	base := parkingLotScenario(10e6, 6e6, func() cc.Algorithm { return newreno.New() })

	s := base
	s.Links = append([]LinkDef{}, base.Links...)
	s.Links[1].Name = "hop1"
	if err := s.Validate(); err == nil {
		t.Error("duplicate link name accepted")
	}

	s = base
	s.Flows = append([]FlowSpec{}, base.Flows...)
	s.Flows[0].Path = nil
	if err := s.Validate(); err == nil {
		t.Error("flow without path accepted")
	}

	s = base
	s.Flows = append([]FlowSpec{}, base.Flows...)
	s.Flows[0].Path = []string{"hop1", "nope"}
	if err := s.Validate(); err == nil {
		t.Error("unknown path link accepted")
	}

	s = base
	s.Flows = append([]FlowSpec{}, base.Flows...)
	s.Flows[0].ReversePath = []string{"nope"}
	if err := s.Validate(); err == nil {
		t.Error("unknown reverse path link accepted")
	}

	s = base
	s.Links = append([]LinkDef{}, base.Links...)
	s.Links[0].NewQueue = nil
	if err := s.Validate(); err == nil {
		t.Error("link without queue factory accepted")
	}

	// A dumbbell flow routed over a link the scenario does not define is
	// rejected like any other unknown route.
	s = dumbbell(LinkDef{RateBps: 1e6, NewQueue: dropTailFactory(1000)}, Scenario{
		Duration: sim.Second,
		Flows:    flowsOf(1, 10, func() cc.Algorithm { return newreno.New() }),
	})
	s.Flows[0].Path = []string{"hop1"}
	if err := s.Validate(); err == nil {
		t.Error("flow routed over an undefined link accepted")
	}

	s = base
	s.Links = nil
	if err := s.Validate(); err == nil {
		t.Error("scenario without links accepted")
	}
}

// TestAsymmetricReverseSlowsFlow checks that routing acknowledgments over a
// slow reverse link materially reduces throughput versus the pure-delay
// return path, all else equal — the ACK clock is really crossing the queue.
func TestAsymmetricReverseSlowsFlow(t *testing.T) {
	build := func(reverse bool) Scenario {
		s := Scenario{
			Links: []LinkDef{
				{Name: "fwd", RateBps: 10e6, DelayMs: 5, NewQueue: dropTailFactory(500)},
				// 40-byte acks over 100 kbps: 312 acks/s, far below the ~833
				// packets/s the forward link can carry.
				{Name: "rev", RateBps: 1e5, DelayMs: 5, NewQueue: dropTailFactory(50)},
			},
			Duration: 5 * sim.Second,
			Flows: []FlowSpec{{
				RTTMs:        40,
				Workload:     alwaysOn(),
				NewAlgorithm: func() cc.Algorithm { return newreno.New() },
				Path:         []string{"fwd"},
			}},
		}
		if reverse {
			s.Flows[0].ReversePath = []string{"rev"}
		}
		return s
	}
	fast, err := Run(build(false), 3)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Run(build(true), 3)
	if err != nil {
		t.Fatal(err)
	}
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
// enqueue-time tail drops. The reverse queue is given ample capacity so
// every drop is CoDel's.
func TestAcksDroppedCountsDequeueTimeDrops(t *testing.T) {
	s := Scenario{
		Links: []LinkDef{
			{Name: "fwd", RateBps: 15e6, DelayMs: 5, NewQueue: dropTailFactory(500)},
			{Name: "rev", RateBps: 3e5, DelayMs: 5, NewQueue: func(*sim.Engine) (netsim.Queue, error) {
				return aqm.NewSfqCoDel(64, 5000)
			}},
		},
		AckBytes: 40,
		Duration: 10 * sim.Second,
		Flows: []FlowSpec{
			{RTTMs: 40, Workload: alwaysOn(), NewAlgorithm: func() cc.Algorithm { return newreno.New() },
				Path: []string{"fwd"}, ReversePath: []string{"rev"}},
			{RTTMs: 40, Workload: alwaysOn(), NewAlgorithm: func() cc.Algorithm { return newreno.New() },
				Path: []string{"fwd"}, ReversePath: []string{"rev"}},
		},
	}
	res, err := Run(s, 3)
	if err != nil {
		t.Fatal(err)
	}
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
	s := parkingLotScenario(8e6, 5e6, func() cc.Algorithm { return newreno.New() })
	a, err := Run(s, 11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(s, 11)
	if err != nil {
		t.Fatal(err)
	}
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
	warmAllocs := func(duration sim.Time) (allocs float64, offered int64) {
		s := parkingLotScenario(20e6, 12e6, func() cc.Algorithm { return newreno.New() })
		s.Duration = duration
		ss, err := NewSession(s)
		if err != nil {
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
	short, shortPkts := warmAllocs(2 * sim.Second)
	long, longPkts := warmAllocs(6 * sim.Second)
	t.Logf("warm run: %.0f allocs for %d packets, %.0f allocs for %d packets", short, shortPkts, long, longPkts)
	if longPkts < 2*shortPkts {
		t.Fatalf("the long run offered %d packets against %d; it must carry at least twice the traffic", longPkts, shortPkts)
	}
	if long > short+4 || short > 100 {
		t.Errorf("a warm run allocates %.0f times over 2 s and %.0f over 6 s; want the same handful", short, long)
	}
}
