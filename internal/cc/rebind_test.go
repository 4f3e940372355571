package cc

import (
	"testing"

	"repro/internal/aqm"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// nopAlgorithm is the least Algorithm Rebind accepts.
type nopAlgorithm struct{}

func (nopAlgorithm) Name() string        { return "nop" }
func (nopAlgorithm) Reset(sim.Time)      {}
func (nopAlgorithm) OnAck(AckEvent)      {}
func (nopAlgorithm) OnLoss(sim.Time)     {}
func (nopAlgorithm) OnTimeout(sim.Time)  {}
func (nopAlgorithm) Window() float64     { return 1 }
func (nopAlgorithm) PacingGap() sim.Time { return 0 }

// TestRebindReturnsToFirstWindowRing pins what a rebound transport keeps of
// its window ring: the first-size ring, emptied, whether or not a flow grew
// the window past it — so a rebuilt world's transports allocate the same
// whatever flows they served before — but not a ring a large flow grew, which
// kept would carry the largest flow each transport ever served into every
// world after.
func TestRebindReturnsToFirstWindowRing(t *testing.T) {
	engine := sim.NewEngine()
	n, err := netsim.NewNetwork(engine, netsim.Config{Queue: aqm.MustDropTail(10), LinkRateBps: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	port, err := n.AttachFlow(netsim.SenderFunc(func(netsim.Ack, sim.Time) {}), 0)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTransport(engine, port, nopAlgorithm{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	fill := func(records int) {
		for seq := int64(0); seq < int64(records); seq++ {
			tr.outstanding.put(seq, sentRecord{sentAt: sim.Time(seq)})
		}
		tr.logResend(0, 0)
	}

	fill(seqWindowMinSize)
	first := &tr.outstanding.recs[0]
	for _, records := range []int{seqWindowMinSize, 4 * seqWindowMinSize} {
		fill(records)
		if err := tr.Rebind(port, nopAlgorithm{}, 0); err != nil {
			t.Fatal(err)
		}
		w := &tr.outstanding
		if w.Len() != 0 || len(tr.resends) != 0 || tr.retransmitQueue.Len() != 0 {
			t.Fatalf("%d records: Rebind left records behind", records)
		}
		if len(w.recs) != seqWindowMinSize || &w.recs[0] != first {
			t.Errorf("%d records: Rebind left a %d-slot window ring, not the first one", records, len(w.recs))
		}
		for i, r := range w.recs {
			if r != (sentRecord{}) {
				t.Fatalf("%d records: slot %d of the first ring holds %+v", records, i, r)
			}
		}
	}
	if allocs := testing.AllocsPerRun(10, func() {
		tr.outstanding.put(0, sentRecord{})
		if err := tr.Rebind(port, nopAlgorithm{}, 0); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("a rebound transport's first record allocates %.0f times", allocs)
	}
}
