package scenario

import "repro/internal/faults"

// Canonical beyond-dumbbell scenario families. The paper evaluates almost
// exclusively on the single-bottleneck dumbbell of Figure 2 and leaves "more
// complicated network paths" open (§7); these three families are the
// repository's canonical instances of that open question, shared by the
// golden battery, the beyond-dumbbell experiment report and the example spec
// files so every layer exercises the same topologies.

// FamilyConfig parameterizes one beyond-dumbbell family with the scheme
// under test and the run budget.
type FamilyConfig struct {
	// Scheme is the registered protocol every responsive flow runs.
	Scheme string
	// RemyCC is the rule-table path for the "remy" scheme.
	RemyCC string
	// Workload is the responsive flows' on/off process.
	Workload WorkloadSpec
	// DurationSeconds, Seed and Repetitions set the run budget.
	DurationSeconds float64
	Seed            int64
	Repetitions     int
	// OfferedLoad scales the flow-churn family's arrival rates as a fraction
	// of each class's bottleneck capacity, evaluated at the size
	// distribution's median (0 means 0.5). Ignored by the other families.
	OfferedLoad float64
	// RTTMs, when positive, overrides every responsive flow's (and churn
	// class's) two-way propagation delay; 0 keeps each family's canonical
	// RTTs. Campaign sweeps use it as an axis.
	RTTMs float64
	// RateScale, when positive, multiplies every link's rate (the flow-churn
	// family rescales its arrival rates with the links, so OfferedLoad keeps
	// its meaning); 0 or 1 keeps the canonical rates.
	RateScale float64
	// BufferPackets, when positive, sets the spec-level queue capacity, which
	// links without their own queue spec inherit; 0 keeps the discipline
	// default.
	BufferPackets int
	// OutageSeconds, when positive, blacks out the lossy-outage family's
	// bottleneck for that long, starting at 40% of the run. Ignored by the
	// other families.
	OutageSeconds float64
	// BurstLoss, when positive, is the lossy-outage family's bad-state drop
	// probability for its Gilbert–Elliott burst-loss process (good-state loss
	// stays zero). Ignored by the other families.
	BurstLoss float64
}

// rtt returns the family's canonical RTT or the sweep override.
func (c FamilyConfig) rtt(def float64) float64 {
	if c.RTTMs > 0 {
		return c.RTTMs
	}
	return def
}

// rate returns the family's canonical link rate scaled by RateScale.
func (c FamilyConfig) rate(def float64) float64 {
	if c.RateScale > 0 {
		return def * c.RateScale
	}
	return def
}

// apply sets the spec-level knobs shared by every family (currently the
// buffer override).
func (c FamilyConfig) apply(s *Spec) {
	if c.BufferPackets > 0 {
		s.Queue.CapacityPackets = c.BufferPackets
	}
}

func (c FamilyConfig) flow(count int, rttMs float64, path, reverse []string) FlowSpec {
	return FlowSpec{
		Scheme:      c.Scheme,
		RemyCC:      c.RemyCC,
		Count:       count,
		RTTMs:       rttMs,
		Workload:    c.Workload,
		Path:        path,
		ReversePath: reverse,
	}
}

// ParkingLotSpec is the two-bottleneck parking lot: a long flow crosses both
// hops of a three-node chain while one cross flow loads each hop, so the
// long flow pays queueing (and possibly drops) twice per round trip.
func ParkingLotSpec(c FamilyConfig) Spec {
	s := New(
		WithName("parkinglot-"+c.Scheme),
		WithDescription("Parking lot: src→mid→dst chain with a 10 Mbps and a 6 Mbps bottleneck; one long flow crosses both hops, one cross flow per hop."),
		WithTopology(TopologySpec{
			Nodes: []NodeSpec{{Name: "src"}, {Name: "mid"}, {Name: "dst"}},
			Links: []TopoLinkSpec{
				{Name: "hop1", From: "src", To: "mid", RateBps: c.rate(10e6), DelayMs: 10},
				{Name: "hop2", From: "mid", To: "dst", RateBps: c.rate(6e6), DelayMs: 10},
			},
		}),
		WithDuration(c.DurationSeconds),
		WithSeed(c.Seed),
		WithRepetitions(c.Repetitions),
		WithFlow(c.flow(1, c.rtt(40), []string{"hop1", "hop2"}, nil)),
		WithFlow(c.flow(1, c.rtt(40), []string{"hop1"}, nil)),
		WithFlow(c.flow(1, c.rtt(40), []string{"hop2"}, nil)),
	)
	c.apply(&s)
	return s
}

// CrossTrafficSpec is the dumbbell with unresponsive cross traffic: two
// responsive flows share one 15 Mbps bottleneck with an on/off
// constant-bit-rate source (5 Mbps while on) that ignores congestion — load
// the responsive scheme can neither displace nor negotiate with.
func CrossTrafficSpec(c FamilyConfig) Spec {
	cross := FlowSpec{
		Scheme:  "cbr",
		RateBps: c.rate(5e6),
		RTTMs:   80,
		Workload: WorkloadSpec{
			Mode:    ModeByTime,
			On:      ExponentialDist(1.0),
			Off:     ExponentialDist(1.0),
			StartOn: true,
		},
		Path: []string{"bottleneck"},
	}
	s := New(
		WithName("crosstraffic-"+c.Scheme),
		WithDescription("Cross-traffic dumbbell: two responsive flows share a 15 Mbps bottleneck with an unresponsive on/off 5 Mbps CBR source."),
		WithTopology(TopologySpec{
			Nodes: []NodeSpec{{Name: "src"}, {Name: "dst"}},
			Links: []TopoLinkSpec{
				{Name: "bottleneck", From: "src", To: "dst", RateBps: c.rate(15e6), DelayMs: 25},
			},
		}),
		WithDuration(c.DurationSeconds),
		WithSeed(c.Seed),
		WithRepetitions(c.Repetitions),
		WithFlow(c.flow(2, c.rtt(100), []string{"bottleneck"}, nil)),
		WithFlow(cross),
	)
	c.apply(&s)
	return s
}

// AsymmetricReverseSpec is the asymmetric-path dumbbell: data crosses a
// 15 Mbps forward bottleneck, but acknowledgments return over a 300 kbps
// link with its own (small) queue, so the ACK clock itself is congestible —
// roughly 937 acks/s against the forward path's ~1250 packets/s.
func AsymmetricReverseSpec(c FamilyConfig) Spec {
	s := New(
		WithName("asymreverse-"+c.Scheme),
		WithDescription("Asymmetric reverse path: 15 Mbps forward bottleneck, 300 kbps ACK channel with a 100-packet queue (40-byte acks)."),
		WithTopology(TopologySpec{
			Nodes: []NodeSpec{{Name: "src"}, {Name: "dst"}},
			Links: []TopoLinkSpec{
				{Name: "fwd", From: "src", To: "dst", RateBps: c.rate(15e6), DelayMs: 25},
				{Name: "rev", From: "dst", To: "src", RateBps: c.rate(0.3e6), DelayMs: 25,
					Queue: QueueSpec{Kind: QueueDropTail, CapacityPackets: 100}},
			},
			AckBytes: 40,
		}),
		WithDuration(c.DurationSeconds),
		WithSeed(c.Seed),
		WithRepetitions(c.Repetitions),
		WithFlow(c.flow(2, c.rtt(100), []string{"fwd"}, []string{"rev"})),
	)
	c.apply(&s)
	return s
}

// churnMedianBytes is the median of the flow-churn family's size
// distribution, ICSIDist(16e3): the Pareto(147, 0.5) median is
// 147·2^(1/0.5) = 588 bytes, shifted by 40 + 16000. Arrival rates are
// derived from it — the ICSI fit's mean is infinite (α ≤ 1), so "offered
// load" for this family is defined at the median flow size, matching how
// heavy-tailed trace workloads are usually parameterized.
const churnMedianBytes = 40 + 16000 + 588

// FlowChurnSpec is the dynamic-workload family: the parking-lot topology
// under churning load. One static long-running flow crosses both hops while
// three Poisson churn classes — end-to-end, hop1-only and hop2-only — spawn
// ICSI-Pareto-sized transfers, complete them, and depart. The per-class
// arrival rate targets c.OfferedLoad of the class's narrowest hop (at the
// median flow size), split evenly between the two classes sharing each hop,
// and the live population is capped at 512 flows.
func FlowChurnSpec(c FamilyConfig) Spec {
	load := c.OfferedLoad
	if load <= 0 {
		load = 0.5
	}
	hop1Bps, hop2Bps := c.rate(10e6), c.rate(6e6)
	size := ICSIDist(16e3)
	class := func(path []string, shareBps float64) ChurnClassSpec {
		rate := load * shareBps / (8 * churnMedianBytes)
		return ChurnClassSpec{
			Scheme:       c.Scheme,
			RemyCC:       c.RemyCC,
			RTTMs:        c.rtt(40),
			Interarrival: ExponentialDist(1 / rate),
			Size:         size,
			Path:         path,
		}
	}
	s := New(
		WithName("flowchurn-"+c.Scheme),
		WithDescription("Flow churn: parking-lot topology under Poisson arrivals of ICSI-Pareto-sized transfers (end-to-end, hop1 and hop2 classes) alongside one static long flow; reports flow completion times."),
		WithTopology(TopologySpec{
			Nodes: []NodeSpec{{Name: "src"}, {Name: "mid"}, {Name: "dst"}},
			Links: []TopoLinkSpec{
				{Name: "hop1", From: "src", To: "mid", RateBps: hop1Bps, DelayMs: 10},
				{Name: "hop2", From: "mid", To: "dst", RateBps: hop2Bps, DelayMs: 10},
			},
		}),
		WithDuration(c.DurationSeconds),
		WithSeed(c.Seed),
		WithRepetitions(c.Repetitions),
		WithFlow(c.flow(1, c.rtt(40), []string{"hop1", "hop2"}, nil)),
		WithChurn(ChurnSpec{
			MaxLiveFlows: 512,
			Classes: []ChurnClassSpec{
				class([]string{"hop1", "hop2"}, hop2Bps/2),
				class([]string{"hop1"}, hop1Bps/2),
				class([]string{"hop2"}, hop2Bps/2),
			},
		}),
	)
	c.apply(&s)
	return s
}

// lossyOutageStartFraction places the lossy-outage family's blackout at 40%
// of the run: late enough that every scheme has converged to steady state,
// early enough that the post-recovery behavior is observed for the remaining
// majority of the run.
const lossyOutageStartFraction = 0.4

// LossyOutageSpec is the robustness family: the classic single-bottleneck
// dumbbell (10 Mbps, two responsive flows) under deterministic faults — one
// mid-run link outage of c.OutageSeconds and, when c.BurstLoss > 0, a
// Gilbert–Elliott burst-loss process whose bad state drops that fraction of
// packets. With both knobs zero the spec is a plain fault-free dumbbell, so
// sweep grids get a built-in control column.
func LossyOutageSpec(c FamilyConfig) Spec {
	s := New(
		WithName("lossyoutage-"+c.Scheme),
		WithDescription("Lossy outage: 10 Mbps dumbbell, two responsive flows, a mid-run link outage and Gilbert–Elliott burst loss on the bottleneck."),
		WithLink(c.rate(10e6)),
		WithDuration(c.DurationSeconds),
		WithSeed(c.Seed),
		WithRepetitions(c.Repetitions),
		WithFlow(c.flow(2, c.rtt(100), nil, nil)),
	)
	var sched faults.Schedule
	if c.OutageSeconds > 0 {
		sched.Outages = []faults.Outage{{
			StartS:    lossyOutageStartFraction * c.DurationSeconds,
			DurationS: c.OutageSeconds,
		}}
	}
	if c.BurstLoss > 0 {
		// Transition probabilities give mean bursts of 4 packets arriving at
		// ~4% of packets: p_good_bad 0.01, p_bad_good 0.25.
		sched.Loss = &faults.GilbertElliott{
			PGoodBad: 0.01,
			PBadGood: 0.25,
			LossBad:  c.BurstLoss,
		}
	}
	if !sched.Empty() {
		s.Faults = &FaultsSpec{Links: []LinkFaultSpec{{Schedule: sched}}}
	}
	c.apply(&s)
	return s
}

// families is the one table of scenario families: every name a campaign grid
// or an experiment may instantiate, with its spec builder, in presentation
// order (the three beyond-dumbbell families first).
var families = []struct {
	name  string
	build func(FamilyConfig) Spec
}{
	{"parkinglot", ParkingLotSpec},
	{"crosstraffic", CrossTrafficSpec},
	{"asymreverse", AsymmetricReverseSpec},
	{"flowchurn", FlowChurnSpec},
	{"lossyoutage", LossyOutageSpec},
}

// Families returns the scenario family names, in presentation order.
func Families() []string {
	names := make([]string, len(families))
	for i, f := range families {
		names[i] = f.name
	}
	return names
}

// Family returns the named family's spec builder.
func Family(name string) (func(FamilyConfig) Spec, bool) {
	for _, f := range families {
		if f.name == name {
			return f.build, true
		}
	}
	return nil, false
}
