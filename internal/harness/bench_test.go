package harness

import (
	"fmt"
	"testing"

	"repro/internal/cc"
	"repro/internal/cc/cubic"
	"repro/internal/cc/newreno"
	"repro/internal/sim"
	"repro/internal/workload"
)

// benchScenario is a quick saturated dumbbell: four always-on senders on a
// 20 Mbps bottleneck for three simulated seconds — the end-to-end shape of
// one experiment repetition.
func benchScenario(newAlgo func() cc.Algorithm) Scenario {
	always := workload.Spec{
		Mode:    workload.ByTime,
		On:      workload.Constant{Value: 10},
		Off:     workload.Constant{Value: 1},
		StartOn: true,
	}
	var flows []FlowSpec
	for i := 0; i < 4; i++ {
		flows = append(flows, FlowSpec{
			RTTMs:        100,
			Workload:     always,
			NewAlgorithm: newAlgo,
		})
	}
	return dumbbell(LinkDef{RateBps: 20e6, NewQueue: dropTailFactory(100)}, Scenario{
		Duration: 3 * sim.Second,
		Flows:    flows,
	})
}

// BenchmarkRunQuickDumbbellNewReno measures a full harness.Run — engine,
// network, transports, workload switchers — per iteration. allocs/op here is
// the headline number the hot-path work optimizes.
func BenchmarkRunQuickDumbbellNewReno(b *testing.B) {
	s := benchScenario(func() cc.Algorithm { return newreno.New() })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(s, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParkingLot measures one repetition of a multi-hop topology run the
// way the campaign and optimizer layers execute it: through a warm reused
// Session (pooled engine, pooled network/transport state), which is the
// production path for everything but the very first repetition of a spec.
// allocs/op is the warm-start contract — near zero. The one-shot
// construction-included path survives as BenchmarkParkingLotCold.
func BenchmarkParkingLot(b *testing.B) {
	s := parkingLotScenario(20e6, 12e6, func() cc.Algorithm { return newreno.New() })
	s.Duration = 3 * sim.Second
	ss, err := NewSession(s)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := ss.Run(1); err != nil { // warm-up: grow slabs and pools
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ss.Run(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParkingLotCold measures the same repetition including the full
// per-run construction (engine, network, transports) that BenchmarkParkingLot
// amortizes away — the cost of a spec's first repetition.
func BenchmarkParkingLotCold(b *testing.B) {
	s := parkingLotScenario(20e6, 12e6, func() cc.Algorithm { return newreno.New() })
	s.Duration = 3 * sim.Second
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(s, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFlowChurn measures one repetition of the dynamic-population
// engine — 500+ flows churning through the parking-lot topology (three
// Poisson classes plus one static long flow) over 20 simulated seconds —
// through a warm reused Session, the production path for campaign
// repetitions. The per-packet steady state allocates nothing (see
// TestChurnSteadyStateAllocs); what remains per run is event execution
// proper. BenchmarkFlowChurnCold keeps the construction-included number.
func BenchmarkFlowChurn(b *testing.B) {
	s := flowChurnBenchScenario(20 * sim.Second)
	ss, err := NewSession(s)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := ss.Run(1); err != nil { // warm-up: grow slabs and pools
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ss.Run(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFlowChurnCold is BenchmarkFlowChurn with the full per-run
// construction included — a spec's first repetition, or what every repetition
// cost before sessions became reusable.
func BenchmarkFlowChurnCold(b *testing.B) {
	s := flowChurnBenchScenario(20 * sim.Second)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(s, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkManyDelays is the engine's measured limit: a world whose packets
// cannot all ride lanes. Always-on NewReno flows, each with an RTT of its own,
// share the 15 Mbps dumbbell for ten simulated seconds on a warm session;
// every distinct delay takes an engine lane until the engine's cap, and past
// it a flow's packets wait on the timer heap and pay a sift each. 4 and 16
// delay classes fit the cap, 64 do not.
func BenchmarkManyDelays(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("rtts=%d", n), func(b *testing.B) {
			s := Scenario{Duration: 10 * sim.Second}
			for i := 0; i < n; i++ {
				s.Flows = append(s.Flows, FlowSpec{
					RTTMs:        100 + 2*float64(i),
					Workload:     alwaysOn(),
					NewAlgorithm: func() cc.Algorithm { return newreno.New() },
				})
			}
			ss, err := NewSession(dumbbell(LinkDef{RateBps: 15e6, NewQueue: dropTailFactory(1000)}, s))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := ss.Run(1); err != nil { // warm-up: grow slabs and pools
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ss.Run(1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRunQuickDumbbellCubic is the same end-to-end run with Cubic, a
// heavier per-ACK code path.
func BenchmarkRunQuickDumbbellCubic(b *testing.B) {
	s := benchScenario(func() cc.Algorithm { return cubic.New() })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(s, 1); err != nil {
			b.Fatal(err)
		}
	}
}
