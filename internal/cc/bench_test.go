package cc_test

import (
	"fmt"
	"testing"

	"repro/internal/cc"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// burstRecoveryWorld is one fixed-window flow on a 10 Gbps, 4 ms path whose
// queue drops the first twentieth of every window's worth of first
// transmissions: a burst of holes per round trip, repaired by one partial ACK
// after another, so loss recovery is the flow's steady state. Retransmissions
// always get through, so the retransmission timer never fires.
func burstRecoveryWorld(tb testing.TB, window int64) *scriptedWorld {
	tb.Helper()
	return newScriptedWorld(tb, 10e9, float64(window), 0, 2*sim.Millisecond, func(p *netsim.Packet) bool {
		return !p.Retransmit && p.Seq%window < window/20
	})
}

// runAcks starts the flow and runs it until it has seen at least n ACKs.
func (w *scriptedWorld) runAcks(n int64) cc.Stats {
	w.tr.StartFlow(0)
	for until := sim.Millisecond; w.tr.Stats().AcksReceived < n; until += sim.Millisecond {
		w.eng.Run(until)
	}
	return w.tr.Stats()
}

// BenchmarkTransportBurstRecovery is the layer benchmark in which the
// presumed-lost scan's cost shows: ns/ack over a flow that is always
// recovering, at three window sizes, and how many records and log entries the
// scans looked at per ACK (counted by replaying the same ACKs under the
// watch, outside the timer). A scan that walks the send window reads
// scan-visits/ack in proportion to the window; the send-order scan's does not
// grow with it.
func BenchmarkTransportBurstRecovery(b *testing.B) {
	for _, window := range []int64{512, 4096, 16384} {
		b.Run(fmt.Sprintf("window=%d", window), func(b *testing.B) {
			w := burstRecoveryWorld(b, window)
			b.ResetTimer()
			st := w.runAcks(int64(b.N))
			b.StopTimer()
			if st.Timeouts != 0 || st.Retransmissions == 0 {
				b.Fatalf("want recovery without timeouts: %+v", st)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(st.AcksReceived), "ns/ack")

			watch := cc.WatchLossScans(b)
			replay := burstRecoveryWorld(b, window).runAcks(int64(b.N))
			watch.Stop()
			if replay != st {
				b.Fatalf("replay under the watch diverged: %+v, timed run %+v", replay, st)
			}
			b.ReportMetric(float64(watch.Visits)/float64(st.AcksReceived), "scan-visits/ack")
			b.ReportMetric(float64(watch.Scans)/float64(st.AcksReceived), "scans/ack")
		})
	}
}

// TestTransportRecoverySteadyStateAllocs: once a transport has been through
// one epoch of burst recovery, another allocates nothing — the retransmission
// log, like the window and the retransmission queue, keeps its buffer across
// StartFlow and StopFlow.
func TestTransportRecoverySteadyStateAllocs(t *testing.T) {
	w := burstRecoveryWorld(t, 512)
	var now sim.Time
	epoch := func() {
		w.tr.StartFlow(now)
		now += 50 * sim.Millisecond
		w.eng.Run(now)
		w.tr.StopFlow(now)
		now += 10 * sim.Millisecond
		w.eng.Run(now) // let what was in flight drain
	}
	// The log is allocated in the first epoch; the simulator's own pools
	// (packets, out for the whole round trip, and lane rings) reach their
	// high-water mark a few epochs later.
	for i := 0; i < 5; i++ {
		epoch()
	}
	before := w.tr.Stats()
	for i := 0; i < 3; i++ {
		// One run at a time: AllocsPerRun rounds its average down.
		if allocs := testing.AllocsPerRun(1, epoch); allocs != 0 {
			t.Errorf("a warm burst-recovery epoch allocates %v times, want 0", allocs)
		}
	}
	after := w.tr.Stats()
	if after.Retransmissions-before.Retransmissions < 1000 || after.Timeouts != 0 {
		t.Errorf("the measured epochs were not burst recovery: %+v after %+v", after, before)
	}
}
