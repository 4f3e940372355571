package scenario

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/sim"
)

func topoWorkload() WorkloadSpec {
	return ByBytesWorkload(ExponentialDist(50_000), ExponentialDist(0.5))
}

func parkingLotConfig() FamilyConfig {
	return FamilyConfig{
		Scheme:          "newreno",
		Workload:        topoWorkload(),
		DurationSeconds: 2,
		Seed:            42,
		Repetitions:     2,
	}
}

// beyondDumbbellFamilies are the families built on an explicit topology.
var beyondDumbbellFamilies = []string{"parkinglot", "crosstraffic", "asymreverse"}

// TestTopologySpecJSONRoundTrip: a topology spec must survive
// encode→decode→encode byte-identically, including routes and per-link
// queues.
func TestTopologySpecJSONRoundTrip(t *testing.T) {
	for _, name := range beyondDumbbellFamilies {
		t.Run(name, func(t *testing.T) {
			build, _ := Family(name)
			spec := build(parkingLotConfig())
			if err := spec.Validate(); err != nil {
				t.Fatalf("family spec invalid: %v", err)
			}
			b1, err := spec.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			back, err := Unmarshal(b1)
			if err != nil {
				t.Fatal(err)
			}
			if err := back.Validate(); err != nil {
				t.Fatalf("decoded spec invalid: %v", err)
			}
			b2, err := back.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			if string(b1) != string(b2) {
				t.Errorf("round trip not a fixed point:\n%s\nvs\n%s", b1, b2)
			}
			if back.Topology == nil || len(back.Topology.Links) == 0 {
				t.Error("topology lost in round trip")
			}
		})
	}
}

// errContains runs Validate and checks the error mentions the fragment.
func errContains(t *testing.T, s Spec, fragment string) {
	t.Helper()
	err := s.Validate()
	if err == nil {
		t.Errorf("Validate accepted a spec that should fail with %q", fragment)
		return
	}
	if !strings.Contains(err.Error(), fragment) {
		t.Errorf("error %q does not mention %q", err, fragment)
	}
}

func TestTopologyValidationErrors(t *testing.T) {
	base := ParkingLotSpec(parkingLotConfig())

	// Dangling node: link references an undeclared node.
	s := base
	topo := *base.Topology
	topo.Links = append([]TopoLinkSpec{}, base.Topology.Links...)
	topo.Links[1].To = "nowhere"
	s.Topology = &topo
	errContains(t, s, "dangles")

	// Cycle in a route: a route that revisits a node.
	s = base
	topo = *base.Topology
	topo.Links = append(append([]TopoLinkSpec{}, base.Topology.Links...),
		TopoLinkSpec{Name: "back", From: "dst", To: "src", RateBps: 1e6})
	s.Topology = &topo
	s.Flows = append([]FlowSpec{}, base.Flows...)
	s.Flows[0].Path = []string{"hop1", "hop2", "back", "hop1"}
	errContains(t, s, "cycle")

	// Flow with no path.
	s = base
	s.Flows = append([]FlowSpec{}, base.Flows...)
	s.Flows[0].Path = nil
	errContains(t, s, "no path")

	// Unknown link in a path.
	s = base
	s.Flows = append([]FlowSpec{}, base.Flows...)
	s.Flows[0].Path = []string{"hop1", "nope"}
	errContains(t, s, "unknown link")

	// Disconnected route: hop2 does not start where... hop2 comes first.
	s = base
	s.Flows = append([]FlowSpec{}, base.Flows...)
	s.Flows[0].Path = []string{"hop2", "hop1"}
	errContains(t, s, "disconnected")

	// Reverse path with wrong endpoints: reusing a forward link reverses
	// nothing.
	s = base
	s.Flows = append([]FlowSpec{}, base.Flows...)
	s.Flows[1].ReversePath = []string{"hop1"}
	errContains(t, s, "reverse path")

	// Self-loop link.
	s = base
	topo = *base.Topology
	topo.Links = append([]TopoLinkSpec{}, base.Topology.Links...)
	topo.Links[0].To = topo.Links[0].From
	s.Topology = &topo
	errContains(t, s, "self-loop")

	// Duplicate node and link names.
	s = base
	topo = *base.Topology
	topo.Nodes = append(append([]NodeSpec{}, base.Topology.Nodes...), NodeSpec{Name: "src"})
	s.Topology = &topo
	errContains(t, s, "twice")
	s = base
	topo = *base.Topology
	topo.Links = append([]TopoLinkSpec{}, base.Topology.Links...)
	topo.Links[1].Name = "hop1"
	s.Topology = &topo
	errContains(t, s, "twice")

	// Link with neither rate nor model.
	s = base
	topo = *base.Topology
	topo.Links = append([]TopoLinkSpec{}, base.Topology.Links...)
	topo.Links[0].RateBps = 0
	s.Topology = &topo
	errContains(t, s, "rate_bps")

	// A "fixed" model is a fixed-rate link and needs its rate just the same;
	// negative rates and capacities are garbage even where a model would
	// otherwise ignore them, and so are negative per-link queue parameters.
	for fragment, mut := range map[string]func(*TopoLinkSpec){
		"rate_bps":              func(l *TopoLinkSpec) { l.Model, l.RateBps = "fixed", 0 },
		"negative rate_bps":     func(l *TopoLinkSpec) { l.Model, l.RateBps = "verizon", -4 },
		"xcp_capacity_bps":      func(l *TopoLinkSpec) { l.XCPCapacityBps = -1 },
		"capacity_packets":      func(l *TopoLinkSpec) { l.Queue.CapacityPackets = -5 },
		"ecn_threshold_packets": func(l *TopoLinkSpec) { l.Queue.ECNThresholdPackets = -3 },
	} {
		s = base
		topo = *base.Topology
		topo.Links = append([]TopoLinkSpec{}, base.Topology.Links...)
		mut(&topo.Links[0])
		s.Topology = &topo
		errContains(t, s, fragment)
	}

	// Routed flows require a topology.
	s = base
	s.Topology = nil
	s.Link.RateBps = 1e6
	errContains(t, s, "no topology")

	// Topologies with no nodes or no links.
	s = base
	s.Topology = &TopologySpec{}
	errContains(t, s, "no nodes")
	s = base
	s.Topology = &TopologySpec{Nodes: []NodeSpec{{Name: "a"}, {Name: "b"}}}
	errContains(t, s, "no links")
}

// asOneLinkTopology rewrites a link/queue-form spec as the hand-written
// one-link topology it lowers to: the same service on a link named
// netsim.BottleneckLink, every flow and churn class routed over it, and the
// fault schedule addressed to it by name.
func asOneLinkTopology(s Spec) Spec {
	path := []string{netsim.BottleneckLink}
	s.Topology = &TopologySpec{
		Nodes: []NodeSpec{{Name: "src"}, {Name: "dst"}},
		Links: []TopoLinkSpec{{
			Name: netsim.BottleneckLink, From: "src", To: "dst",
			RateBps: s.Link.RateBps, Model: s.Link.Model, TraceLoop: s.Link.TraceLoop,
			XCPCapacityBps: s.Link.XCPCapacityBps,
		}},
	}
	s.Link = LinkSpec{}
	s.Flows = append([]FlowSpec{}, s.Flows...)
	for i := range s.Flows {
		s.Flows[i].Path = path
	}
	if s.Churn != nil {
		churn := *s.Churn
		churn.Classes = append([]ChurnClassSpec{}, churn.Classes...)
		for i := range churn.Classes {
			churn.Classes[i].Path = path
		}
		s.Churn = &churn
	}
	if s.Faults != nil {
		s.Faults = &FaultsSpec{Links: []LinkFaultSpec{{Link: netsim.BottleneckLink, Schedule: s.Faults.Links[0].Schedule}}}
	}
	return s
}

// TestLinkFormEqualsOneLinkTopology pins the lowering at the spec level: a
// spec written in the link/queue form and the same world written as a one-link
// topology must produce identical results on every repetition, at any worker
// count — across queue kinds, trace models, faults and churn.
func TestLinkFormEqualsOneLinkTopology(t *testing.T) {
	dumbbell := func(name, scheme string, opts ...Option) Spec {
		base := []Option{
			WithName(name),
			WithLink(15e6),
			WithDuration(5),
			WithSeed(7),
			WithRepetitions(2),
			WithFlows(2, scheme, 100, topoWorkload()),
		}
		return New(append(base, opts...)...)
	}
	specs := []Spec{
		dumbbell("newreno", "newreno"),
		dumbbell("xcp", "xcp"),
		dumbbell("cubic-sfqcodel", "cubic/sfqcodel", WithQueue("", 300)),
		dumbbell("cubic-verizon", "cubic", WithLinkModel("verizon")),
		dumbbell("xcp-verizon-loop", "xcp", WithLinkModel("verizon"), func(s *Spec) { s.Link.TraceLoop = true }),
		dumbbell("cubic-outage", "cubic", WithFaults(FaultsSpec{Links: []LinkFaultSpec{{
			Schedule: faults.Schedule{Outages: []faults.Outage{{StartS: 2, DurationS: 1}}},
		}}})),
		dumbbell("vegas-churn", "vegas", WithChurn(ChurnSpec{Classes: []ChurnClassSpec{{
			Scheme: "newreno", RTTMs: 60, Interarrival: ExponentialDist(0.1), Size: ExponentialDist(30e3),
		}}})),
	}
	for _, spec := range specs {
		t.Run(spec.Name, func(t *testing.T) {
			topo := asOneLinkTopology(spec)
			for _, workers := range []int{1, 4} {
				want, err := (Runner{Workers: workers}).RunOne(spec)
				if err != nil {
					t.Fatal(err)
				}
				got, err := (Runner{Workers: workers}).RunOne(topo)
				if err != nil {
					t.Fatal(err)
				}
				for rep := range want {
					if want[rep].Res.Delivered == 0 {
						t.Fatalf("workers=%d rep %d delivered nothing; comparison is vacuous", workers, rep)
					}
					if !reflect.DeepEqual(want[rep].Res, got[rep].Res) {
						t.Errorf("workers=%d rep %d: link form and one-link topology differ:\n link: %+v\n topo: %+v",
							workers, rep, want[rep].Res, got[rep].Res)
					}
				}
			}
		})
	}
}

// TestFamiliesCompileAndRun executes one short repetition of each canonical
// family end to end through the runner.
func TestFamiliesCompileAndRun(t *testing.T) {
	for _, name := range beyondDumbbellFamilies {
		t.Run(name, func(t *testing.T) {
			cfg := parkingLotConfig()
			cfg.Repetitions = 1
			build, _ := Family(name)
			spec := build(cfg)
			results, err := (Runner{Workers: 1}).RunOne(spec)
			if err != nil {
				t.Fatal(err)
			}
			if len(results) != 1 {
				t.Fatalf("got %d results", len(results))
			}
			res := results[0].Res
			if res.Offered == 0 {
				t.Error("no packets offered")
			}
			if len(res.Links) != len(spec.Topology.Links) {
				t.Errorf("got %d link results, want %d", len(res.Links), len(spec.Topology.Links))
			}
			var acked int64
			for _, f := range res.Flows {
				acked += f.Transport.BytesAcked
			}
			if acked == 0 {
				t.Error("no bytes acknowledged across flows")
			}
		})
	}
}

// TestTopologyWorkerDeterminism: topology repetitions are worker-count
// invariant like every other spec.
func TestTopologyWorkerDeterminism(t *testing.T) {
	cfg := parkingLotConfig()
	cfg.Repetitions = 3
	spec := ParkingLotSpec(cfg)
	one, err := (Runner{Workers: 1}).RunOne(spec)
	if err != nil {
		t.Fatal(err)
	}
	four, err := (Runner{Workers: 4}).RunOne(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range one {
		a, b := one[i], four[i]
		if a.Seed != b.Seed || a.Res.Offered != b.Res.Offered || a.Res.Delivered != b.Res.Delivered {
			t.Errorf("rep %d differs across worker counts", i)
		}
		for j := range a.Res.Flows {
			if a.Res.Flows[j].Transport != b.Res.Flows[j].Transport {
				t.Errorf("rep %d flow %d transport counters differ", i, j)
			}
		}
	}
}

// TestCBRSchemeValidation: the cbr scheme requires a positive rate.
func TestCBRSchemeValidation(t *testing.T) {
	s := New(
		WithLink(10e6),
		WithDuration(1),
		WithFlow(FlowSpec{Scheme: "cbr", RTTMs: 50, Workload: topoWorkload()}),
	)
	if _, err := (Runner{Workers: 1}).RunOne(s); err == nil || !strings.Contains(err.Error(), "rate_bps") {
		t.Errorf("cbr without rate_bps ran: %v", err)
	}
	s.Flows[0].RateBps = 2e6
	if _, err := (Runner{Workers: 1}).RunOne(s); err != nil {
		t.Errorf("cbr with rate_bps failed to run: %v", err)
	}
}

// TestCBRPacingMatchesSpecMTU: the cbr pacing gap must be sized for the
// packets the transport actually sends, so a non-default MTU does not skew
// the offered rate by mtu/1500.
func TestCBRPacingMatchesSpecMTU(t *testing.T) {
	for _, mtu := range []int{0, 500, 9000} {
		s := New(
			WithLink(10e6),
			WithDuration(1),
			WithMTU(mtu),
			WithFlow(FlowSpec{Scheme: "cbr", RateBps: 1e6, RTTMs: 50, Workload: topoWorkload()}),
		)
		p, err := s.resolveScheme(Default(), s.Flows[0])
		if err != nil {
			t.Fatalf("mtu %d: %v", mtu, err)
		}
		bytes := mtu
		if bytes == 0 {
			bytes = 1500
		}
		want := sim.FromSeconds(float64(bytes) * 8 / 1e6)
		if got := p.New().PacingGap(); got != want {
			t.Errorf("mtu %d: pacing gap %v, want %v", mtu, got, want)
		}
	}
}

// TestCrossTrafficCBRIsUnresponsive: the cbr cross flow keeps sending at its
// configured rate while on, regardless of losses the responsive flows react
// to.
func TestCrossTrafficCBRIsUnresponsive(t *testing.T) {
	cfg := parkingLotConfig()
	cfg.Repetitions = 1
	cfg.DurationSeconds = 3
	spec := CrossTrafficSpec(cfg)
	results, err := (Runner{Workers: 1}).RunOne(spec)
	if err != nil {
		t.Fatal(err)
	}
	res := results[0].Res
	// Flow order: 2 responsive flows then the cbr flow.
	if len(res.Flows) != 3 {
		t.Fatalf("got %d flows", len(res.Flows))
	}
	cbrFlow := res.Flows[2]
	if cbrFlow.Algorithm != "cbr" {
		t.Fatalf("flow 2 runs %q, want cbr", cbrFlow.Algorithm)
	}
	if cbrFlow.Transport.PacketsSent == 0 {
		t.Error("cbr flow sent nothing")
	}
	// While on, CBR offers 5 Mbps = ~417 packets/s; over the run its average
	// send rate must be well above what a loss-responsive scheme would settle
	// at if it backed off, and bounded by the configured rate.
	onSeconds := res.Flows[2].Metrics.OnDuration
	if onSeconds > 0 {
		rate := float64(cbrFlow.Transport.PacketsSent) * 1500 * 8 / onSeconds
		if rate > 5e6*1.1 {
			t.Errorf("cbr sent at %.0f bps, above its configured 5e6", rate)
		}
		if rate < 5e6*0.5 {
			t.Errorf("cbr sent at %.0f bps, suspiciously below its configured 5e6", rate)
		}
	}
}
