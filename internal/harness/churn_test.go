package harness_test

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/harness"
	"repro/internal/scenario"
)

// churnDumbbell is a single-bottleneck world with one NewReno churn class:
// constant-size transfers arriving every interarrival seconds.
func churnDumbbell(interarrival, sizeBytes float64, maxLive int) scenario.Spec {
	s := dumbbell(15e6, scenario.QueueDropTail, 250, 10)
	s.Churn = &scenario.ChurnSpec{MaxLiveFlows: maxLive, Classes: []scenario.ChurnClassSpec{{
		Scheme:       "newreno",
		RTTMs:        60,
		Interarrival: scenario.ConstantDist(interarrival),
		Size:         scenario.ConstantDist(sizeBytes),
	}}}
	return s
}

func TestChurnBasicCompletion(t *testing.T) {
	res := run(t, churnDumbbell(0.1, 30e3, 0), 1)
	if len(res.Flows) != 0 {
		t.Errorf("churn-only world reported %d static flows", len(res.Flows))
	}
	if len(res.Churn) != 1 {
		t.Fatalf("got %d churn results, want 1", len(res.Churn))
	}
	c := res.Churn[0]
	if c.Algorithm != "newreno" {
		t.Errorf("algorithm %q, want newreno", c.Algorithm)
	}
	// 10 s / 0.1 s interarrival = ~99 arrivals; the link is fast enough that
	// nearly all complete.
	if c.Spawned < 90 {
		t.Errorf("spawned %d flows, want ~99", c.Spawned)
	}
	if c.Completed < c.Spawned-10 {
		t.Errorf("completed %d of %d spawned; transfers should finish quickly", c.Completed, c.Spawned)
	}
	if c.Rejected != 0 {
		t.Errorf("rejected %d arrivals with no cap pressure", c.Rejected)
	}
	if c.FCT.Count != c.Completed {
		t.Errorf("FCT count %d != completed %d", c.FCT.Count, c.Completed)
	}
	if c.FCT.Mean <= 0 || c.FCT.Min <= 0 || c.FCT.Max < c.FCT.Min {
		t.Errorf("implausible FCT summary: %+v", c.FCT)
	}
	// Integer and floating aggregates must agree.
	if got, want := float64(c.FCTSumUs)/1e6/float64(c.Completed), c.FCT.Mean; math.Abs(got-want)/want > 1e-6 {
		t.Errorf("FCTSumUs-derived mean %g != summary mean %g", got, want)
	}
	// A 30 kB transfer at 15 Mbps with a 60 ms RTT takes a few RTTs of slow
	// start: completion times should be tens to hundreds of ms.
	if c.FCT.Mean < 0.02 || c.FCT.Mean > 2 {
		t.Errorf("mean FCT %.3fs outside plausible range", c.FCT.Mean)
	}
	// Every completed transfer acked at least its size.
	if c.Transport.BytesAcked < c.Completed*30000 {
		t.Errorf("BytesAcked %d < completed*size %d", c.Transport.BytesAcked, c.Completed*30000)
	}
}

func TestChurnDeterminism(t *testing.T) {
	s := churnDumbbell(0.05, 50e3, 0)
	s.Churn.Classes[0].Interarrival = scenario.ExponentialDist(0.05)
	s.Churn.Classes[0].Size = scenario.ExponentialDist(50e3)
	r1 := run(t, s, 42)
	r2 := run(t, s, 42)
	if !reflect.DeepEqual(r1, r2) {
		t.Error("same world and seed produced different churn results")
	}
	r3 := run(t, s, 43)
	if r3.Churn[0].FCTSumUs == r1.Churn[0].FCTSumUs && r3.Churn[0].Spawned == r1.Churn[0].Spawned {
		t.Error("different seeds produced identical churn outcomes (suspicious)")
	}
}

func TestChurnMaxLiveFlowsCap(t *testing.T) {
	// Arrivals every 10 ms of large transfers over a slow link: the
	// population hits the cap almost immediately.
	s := churnDumbbell(0.01, 1e6, 4)
	s.Link.RateBps = 2e6
	c := run(t, s, 1).Churn[0]
	if c.Rejected == 0 {
		t.Error("no arrivals rejected despite a saturated cap")
	}
	if live := c.Spawned - c.Completed; live > 4 {
		t.Errorf("%d flows live at the horizon, cap is 4", live)
	}
	if c.Spawned+c.Rejected < 900 {
		t.Errorf("arrival process stalled: %d spawned + %d rejected", c.Spawned, c.Rejected)
	}
}

func TestChurnMaxArrivals(t *testing.T) {
	s := churnDumbbell(0.05, 20e3, 0)
	s.Churn.Classes[0].MaxArrivals = 7
	res := run(t, s, 1)
	if got := res.Churn[0].Spawned + res.Churn[0].Rejected; got != 7 {
		t.Errorf("arrivals = %d, want exactly MaxArrivals = 7", got)
	}
}

// TestChurnAlongsideStaticFlows mixes static long-running flows with churn
// classes on the parking-lot topology: both kinds must report, and the churn
// flows route over their declared hops.
func TestChurnAlongsideStaticFlows(t *testing.T) {
	s := parkingLot("cubic", 1)
	s.DurationSeconds = 10
	class := func(mean float64, path ...string) scenario.ChurnClassSpec {
		return scenario.ChurnClassSpec{Scheme: "newreno", RTTMs: 40, Path: path,
			Interarrival: scenario.ExponentialDist(mean), Size: scenario.ExponentialDist(40e3)}
	}
	s.Churn = &scenario.ChurnSpec{Classes: []scenario.ChurnClassSpec{class(0.1, "hop1", "hop2"), class(0.2, "hop2")}}
	res := run(t, s, 3)
	if len(res.Flows) != 3 {
		t.Fatalf("static flow count %d, want 3", len(res.Flows))
	}
	if len(res.Churn) != 2 {
		t.Fatalf("churn class count %d, want 2", len(res.Churn))
	}
	for i, c := range res.Churn {
		if c.Class != i {
			t.Errorf("churn result %d has class %d", i, c.Class)
		}
		if c.Spawned == 0 || c.Completed == 0 {
			t.Errorf("class %d spawned %d completed %d; churn stalled", i, c.Spawned, c.Completed)
		}
	}
	for i, f := range res.Flows {
		if f.Metrics.ThroughputBps <= 0 {
			t.Errorf("static flow %d starved alongside churn", i)
		}
	}
}

// TestChurnStaticUnperturbed pins the degenerate-case contract: adding a
// churn class must not change the static flows' random streams or slots, so
// a static flow's results with and without an inert churn class match.
func TestChurnStaticUnperturbed(t *testing.T) {
	base := dumbbell(15e6, scenario.QueueDropTail, 250, 5, scenario.FlowSpec{
		Scheme: "newreno", RTTMs: 100,
		Workload: scenario.ByTimeWorkload(scenario.ExponentialDist(5), scenario.ExponentialDist(5)),
	})
	plain := run(t, base, 9)
	// An inert churn class: first arrival would land beyond the horizon.
	withChurn := base
	withChurn.Churn = &scenario.ChurnSpec{Classes: []scenario.ChurnClassSpec{{
		Scheme: "newreno", RTTMs: 60,
		Interarrival: scenario.ConstantDist(1e6), Size: scenario.ConstantDist(1e4),
	}}}
	mixed := run(t, withChurn, 9)
	if !reflect.DeepEqual(plain.Flows, mixed.Flows) {
		t.Error("adding an inert churn class perturbed the static flow's results")
	}
}

// TestChurnValidation: a run refuses a malformed churn class — the spec's
// validation catches these — and a class whose scheme builds no algorithm,
// which the build catches.
func TestChurnValidation(t *testing.T) {
	cases := []struct {
		name, fragment string
		mut            func(*scenario.ChurnClassSpec, *scenario.ChurnSpec)
	}{
		{"no algorithm", "no scheme", func(c *scenario.ChurnClassSpec, _ *scenario.ChurnSpec) { c.Scheme = "" }},
		{"nil algorithm", "built no algorithm", func(c *scenario.ChurnClassSpec, _ *scenario.ChurnSpec) { c.Algorithm = nilAlgorithm }},
		{"no interarrival", "interarrival", func(c *scenario.ChurnClassSpec, _ *scenario.ChurnSpec) { c.Interarrival = scenario.DistSpec{} }},
		{"no size", "size", func(c *scenario.ChurnClassSpec, _ *scenario.ChurnSpec) { c.Size = scenario.DistSpec{} }},
		{"negative rtt", "negative RTT", func(c *scenario.ChurnClassSpec, _ *scenario.ChurnSpec) { c.RTTMs = -1 }},
		{"negative max live", "max_live_flows", func(_ *scenario.ChurnClassSpec, cs *scenario.ChurnSpec) { cs.MaxLiveFlows = -1 }},
		{"negative max arrivals", "max_arrivals", func(c *scenario.ChurnClassSpec, _ *scenario.ChurnSpec) { c.MaxArrivals = -1 }},
		{"path without topology", "no topology", func(c *scenario.ChurnClassSpec, _ *scenario.ChurnSpec) { c.Path = []string{"hop1"} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := churnDumbbell(1, 1e4, 0)
			tc.mut(&s.Churn.Classes[0], s.Churn)
			refuses(t, s, tc.fragment)
		})
	}
	// On a topology a churn class needs a path, over links the world has.
	t.Run("no path", func(t *testing.T) {
		s := parkingLot("newreno", 1)
		s.Churn = &scenario.ChurnSpec{Classes: []scenario.ChurnClassSpec{{Scheme: "newreno", RTTMs: 40,
			Interarrival: scenario.ConstantDist(1), Size: scenario.ConstantDist(1e4)}}}
		refuses(t, s, "churn class 0 has no path")
		s.Churn.Classes[0].Path = []string{"nope"}
		refuses(t, s, "unknown link")
	})
	// Churn-only worlds (no static flows) are valid.
	s := churnDumbbell(1, 1e4, 0)
	if err := s.Validate(); err != nil {
		t.Errorf("churn-only world rejected: %v", err)
	}
}

// flowChurnBench is the many-flow churn world: the 10 and 6 Mbps parking lot
// keeps its long Cubic flow, and three Poisson classes of NewReno transfers
// (end-to-end, hop1 and hop2, 15 kB on average at 10, 15 and 10 arrivals/s)
// churn through it alongside, the population capped at 512.
func flowChurnBench(seconds float64) scenario.Spec {
	s := parkingLot("cubic", 1)
	s.Flows = s.Flows[:1] // keep the long flow, replace cross traffic by churn
	s.DurationSeconds = seconds
	class := func(rate float64, path ...string) scenario.ChurnClassSpec {
		return scenario.ChurnClassSpec{Scheme: "newreno", RTTMs: 40, Path: path,
			Interarrival: scenario.ExponentialDist(1 / rate), Size: scenario.ExponentialDist(15e3)}
	}
	// ~0.12 Mb per flow: 3 Mbps of churn on each hop, leaving room for the
	// static long flow, so transfers complete while the flow count stays in
	// the many-hundreds regime (35 arrivals/s).
	s.Churn = &scenario.ChurnSpec{MaxLiveFlows: 512, Classes: []scenario.ChurnClassSpec{
		class(10, "hop1", "hop2"),
		class(15, "hop1"),
		class(10, "hop2"),
	}}
	return s
}

// TestFlowChurnScale checks the many-flow churn world actually exercises the
// many-flow regime: 500+ flows spawned and the overwhelming majority
// completed.
func TestFlowChurnScale(t *testing.T) {
	res := run(t, flowChurnBench(20), 1)
	var spawned, completed int64
	for _, c := range res.Churn {
		spawned += c.Spawned
		completed += c.Completed
	}
	if spawned < 500 {
		t.Errorf("spawned %d churn flows, want 500+", spawned)
	}
	if float64(completed) < 0.8*float64(spawned) {
		t.Errorf("completed %d of %d; churn should mostly complete", completed, spawned)
	}
}

// TestChurnSteadyStateAllocs pins the allocation criterion: once pools have
// grown to the peak live population, extra simulated time (more packets, more
// spawns and retires) must cost no extra allocations per packet. It compares
// total allocations of a short and a long run of the same churning world,
// each built on a new session; the difference is attributable to the extra
// steady-state work.
func TestChurnSteadyStateAllocs(t *testing.T) {
	// The horizons are deep enough that pools have plateaued at the peak live
	// population well before the short horizon ends (the allocation curve is
	// ~2.6k at 5s, ~4.3k at 30s, and nearly flat after).
	short := flowChurnBench(30)
	long := flowChurnBench(60)

	var shortPackets, longPackets int64
	var res harness.Result
	allocShort := testing.AllocsPerRun(3, func() {
		res = run(t, short, 1)
		shortPackets = res.Offered
	})
	allocLong := testing.AllocsPerRun(3, func() {
		res = run(t, long, 1)
		longPackets = res.Offered
	})
	extraPackets := longPackets - shortPackets
	extraAllocs := allocLong - allocShort
	if extraPackets <= 0 {
		t.Fatalf("long run offered %d packets vs short %d; world broken", longPackets, shortPackets)
	}
	// Steady state must be allocation-free per packet. Pool growth differences
	// between the two horizons allow a small absolute slack.
	perPacket := extraAllocs / float64(extraPackets)
	t.Logf("short: %.0f allocs / %d pkts; long: %.0f allocs / %d pkts; marginal %.4f allocs/pkt",
		allocShort, shortPackets, allocLong, longPackets, perPacket)
	if perPacket > 0.01 {
		t.Errorf("steady-state allocation rate %.4f allocs/packet, want ~0", perPacket)
	}
}
