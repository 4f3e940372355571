package cc

import (
	"testing"

	"repro/internal/aqm"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// growOnAck is a window that grows by one packet on every acknowledgment,
// duplicates included, and falls back to one on a timeout, as a RemyCC's may.
type growOnAck struct{ window float64 }

func (g *growOnAck) Name() string        { return "grow" }
func (g *growOnAck) Reset(sim.Time)      {}
func (g *growOnAck) OnAck(AckEvent)      { g.window++ }
func (g *growOnAck) OnLoss(sim.Time)     {}
func (g *growOnAck) OnTimeout(sim.Time)  { g.window = 1 }
func (g *growOnAck) Window() float64     { return g.window }
func (g *growOnAck) PacingGap() sim.Time { return 0 }

// TestLossScanBeforeFirstRTTSample: a path slower than the initial RTO times
// out before any acknowledgment comes back, and the go-back-N rewind resends
// from the hole. The first transmissions' acknowledgments then arrive late:
// their records are gone, so they give no RTT sample, but they are duplicates
// of the hole, and a window that grows on each sends new data until the third
// signals a loss. With no smoothed RTT yet, the presumed-lost scan must judge
// staleness by the RTO and leave the packets it has just sent alone: only the
// hole is retransmitted.
func TestLossScanBeforeFirstRTTSample(t *testing.T) {
	engine := sim.NewEngine()
	n, err := netsim.NewNetwork(engine, netsim.Config{Queue: aqm.MustDropTail(100), LinkRateBps: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	port, err := n.AttachFlow(netsim.SenderFunc(func(netsim.Ack, sim.Time) {}), 0)
	if err != nil {
		t.Fatal(err)
	}
	algo := &growOnAck{window: 8}
	tr, err := NewTransport(engine, port, algo, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr.StartFlow(0) // sends 0..7; the simulation never runs, so none arrives
	now := initialRTO
	tr.onRTO(now) // resends 0
	for _, seq := range []int64{5, 6, 7} {
		now += 100 * sim.Millisecond
		tr.OnAck(netsim.Ack{Seq: seq, CumAck: 0, SentAt: 0}, now)
	}
	st := tr.Stats()
	if st.RTTSamples != 0 || st.LossEvents != 2 {
		t.Fatalf("%d RTT samples, %d loss events; want none, and the timeout and the dup-ACK loss", st.RTTSamples, st.LossEvents)
	}
	if st.Retransmissions != 1 {
		t.Errorf("%d retransmissions; want 1, the hole: packets sent within the RTO are not presumed lost", st.Retransmissions)
	}
}
