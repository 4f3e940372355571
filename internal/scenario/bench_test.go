package scenario

import (
	"fmt"
	"testing"
)

// alwaysOnWorkload is a workload that stays on for the whole run.
func alwaysOnWorkload() WorkloadSpec {
	return WorkloadSpec{Mode: ModeByTime, On: ConstantDist(1e6), Off: ConstantDist(1e6), StartOn: true}
}

// benchDumbbell is a quick saturated dumbbell: four always-on senders on a
// 20 Mbps bottleneck for three simulated seconds — the end-to-end shape of
// one experiment repetition.
func benchDumbbell(scheme string) Spec {
	return New(WithLink(20e6), WithQueue(QueueDropTail, 100), WithDuration(3), WithSeed(1),
		WithFlow(FlowSpec{Scheme: scheme, Count: 4, RTTMs: 100,
			Workload: WorkloadSpec{Mode: ModeByTime, On: ConstantDist(10), Off: ConstantDist(1), StartOn: true}}))
}

// benchParkingLot is the two-bottleneck parking lot at 20 and 12 Mbps with
// 250-packet buffers: a long flow across both hops and one cross flow per
// hop, all always on.
func benchParkingLot(scheme string, seconds float64) Spec {
	return ParkingLotSpec(FamilyConfig{Scheme: scheme, Workload: alwaysOnWorkload(), DurationSeconds: seconds,
		Seed: 1, RateScale: 2, BufferPackets: 250})
}

// benchFlowChurn is the many-flow churn world: the 10 and 6 Mbps parking lot
// keeps its long Cubic flow, and three Poisson classes of NewReno transfers
// (end-to-end, hop1 and hop2, 15 kB on average at 10, 15 and 10 arrivals/s)
// churn through it, 500+ flows over 20 simulated seconds.
func benchFlowChurn(seconds float64) Spec {
	s := ParkingLotSpec(FamilyConfig{Scheme: "cubic", Workload: alwaysOnWorkload(), DurationSeconds: seconds,
		Seed: 1, BufferPackets: 250})
	s.Flows = s.Flows[:1]
	class := func(path []string, rate float64) ChurnClassSpec {
		return ChurnClassSpec{Scheme: "newreno", RTTMs: 40, Path: path,
			Interarrival: ExponentialDist(1 / rate), Size: ExponentialDist(15e3)}
	}
	s.Churn = &ChurnSpec{MaxLiveFlows: 512, Classes: []ChurnClassSpec{
		class([]string{"hop1", "hop2"}, 10),
		class([]string{"hop1"}, 15),
		class([]string{"hop2"}, 10),
	}}
	return s
}

// benchCold measures building spec's world on a new session and running it
// once, per iteration: a spec's first repetition on an engine that has never
// run anything.
func benchCold(b *testing.B, spec Spec) {
	b.ReportAllocs()
	for b.Loop() {
		var ss Session
		if err := ss.Rebuild(nil, &spec, 0); err != nil {
			b.Fatal(err)
		}
		if _, err := ss.Run(spec.Seed); err != nil {
			b.Fatal(err)
		}
	}
}

// benchWarm measures one repetition of spec on a warm session, the
// production path for everything but the very first repetition of a spec:
// allocs/op is the warm-start contract, near zero.
func benchWarm(b *testing.B, spec Spec) {
	var ss Session
	if err := ss.Rebuild(nil, &spec, 0); err != nil {
		b.Fatal(err)
	}
	if _, err := ss.Run(spec.Seed); err != nil { // warm-up: grow slabs and pools
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := ss.Run(spec.Seed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunQuickDumbbellNewReno measures a full cold run — engine,
// network, transports, workload switchers built, then run — per iteration.
func BenchmarkRunQuickDumbbellNewReno(b *testing.B) { benchCold(b, benchDumbbell("newreno")) }

// BenchmarkRunQuickDumbbellCubic is the same end-to-end run with Cubic, a
// heavier per-ACK code path.
func BenchmarkRunQuickDumbbellCubic(b *testing.B) { benchCold(b, benchDumbbell("cubic")) }

// BenchmarkParkingLot measures one repetition of a multi-hop topology run the
// way the campaign and optimizer layers execute it, on a warm session.
// BenchmarkParkingLotCold keeps the construction-included number.
func BenchmarkParkingLot(b *testing.B) { benchWarm(b, benchParkingLot("newreno", 3)) }

// BenchmarkParkingLotCold measures the same repetition including the world's
// construction that BenchmarkParkingLot amortizes away.
func BenchmarkParkingLotCold(b *testing.B) { benchCold(b, benchParkingLot("newreno", 3)) }

// BenchmarkFlowChurn measures one repetition of the dynamic-population engine
// on a warm session, the production path for campaign repetitions. The
// per-packet steady state allocates nothing (see TestChurnSteadyStateAllocs);
// what remains per run is event execution proper.
func BenchmarkFlowChurn(b *testing.B) { benchWarm(b, benchFlowChurn(20)) }

// BenchmarkFlowChurnCold is BenchmarkFlowChurn with the world's construction
// included — a spec's first repetition on a new engine.
func BenchmarkFlowChurnCold(b *testing.B) { benchCold(b, benchFlowChurn(20)) }

// BenchmarkManyDelays is the engine's measured limit: a world whose packets
// cannot all ride lanes. Always-on NewReno flows, each with an RTT of its own,
// share the 15 Mbps dumbbell for ten simulated seconds on a warm session;
// every distinct delay takes an engine lane until the engine's cap, and past
// it a flow's packets wait on the timer heap and pay a sift each. 4 and 16
// delay classes fit the cap, 64 do not.
func BenchmarkManyDelays(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("rtts=%d", n), func(b *testing.B) {
			s := New(WithLink(15e6), WithQueue(QueueDropTail, 1000), WithDuration(10), WithSeed(1))
			for i := 0; i < n; i++ {
				s.Flows = append(s.Flows, FlowSpec{Scheme: "newreno", RTTMs: 100 + 2*float64(i), Workload: alwaysOnWorkload()})
			}
			benchWarm(b, s)
		})
	}
}
