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

// windowOps drives a send window the way a flow with one long-held hole
// does: records go in ascending, all but the hole are acknowledged a window
// later, and the floor cannot pass the hole until it is acknowledged at last,
// so the occupied span, and with it the ring, grows in several steps. After
// each operation it appends the ring's size and whether the operation's
// record is held to trace.
func windowOps(w *seqWindow, records int, trace []int) []int {
	const window, hole = 40, 3
	for seq := int64(0); seq < int64(records); seq++ {
		w.put(seq, sentRecord{sentAt: sim.Time(seq + 1)})
		trace = append(trace, len(w.recs), w.Len())
		if acked := seq - window; acked >= 0 && acked != hole {
			w.del(acked)
			w.forgetBelow(hole)
			_, held := w.get(acked)
			trace = append(trace, len(w.recs), w.Len(), boolInt(held))
		}
	}
	w.del(hole)
	w.forgetBelow(int64(records) - window)
	return append(trace, len(w.recs), w.Len())
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestRebindReturnsToFirstWindowRing pins what a rebound transport keeps of
// its window ring: the backing array its flows grew, but not the ring. The
// renewed window holds nothing; its first record sizes it back to the first
// size, zero but for that record; and it regrows through exactly the ring
// sizes a new window's does, into the kept array, without allocating — so a
// rebuilt world's transports pass through what new ones would, whatever flows
// they served before.
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
	const records = 1000
	var fresh seqWindow
	want := windowOps(&fresh, records, nil)
	if grown := want[len(want)-2]; grown < 8*seqWindowMinSize {
		t.Fatalf("the operations grew a new window's ring to %d slots only", grown)
	}

	windowOps(&tr.outstanding, 4*records, nil) // a larger flow, grown further
	tr.logResend(0, 0)
	got := make([]int, 0, len(want))
	for round := 0; round < 2; round++ {
		if err := tr.Rebind(port, nopAlgorithm{}, 0); err != nil {
			t.Fatal(err)
		}
		w := &tr.outstanding
		if w.Len() != 0 || len(tr.resends) != 0 || tr.retransmitQueue.Len() != 0 {
			t.Fatalf("round %d: Rebind left records behind", round)
		}
		for seq := int64(0); seq < 4*records; seq++ {
			if _, held := w.get(seq); held {
				t.Fatalf("round %d: the renewed window still holds seq %d", round, seq)
			}
		}
		w.put(7, sentRecord{sentAt: 1})
		if len(w.recs) != seqWindowMinSize {
			t.Fatalf("round %d: a renewed window's first record gives a %d-slot ring, want %d", round, len(w.recs), seqWindowMinSize)
		}
		for i, r := range w.recs {
			if i != 7 && r != (sentRecord{}) {
				t.Fatalf("round %d: slot %d of the renewed ring holds %+v", round, i, r)
			}
		}
		if err := tr.Rebind(port, nopAlgorithm{}, 0); err != nil {
			t.Fatal(err)
		}
		got = windowOps(w, records, got[:0])
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d, step %d: a renewed window gives %d, a new one %d (ring size, records held, record held)",
					round, i, got[i], want[i])
			}
		}
	}
	if allocs := testing.AllocsPerRun(5, func() {
		if err := tr.Rebind(port, nopAlgorithm{}, 0); err != nil {
			t.Fatal(err)
		}
		got = windowOps(&tr.outstanding, records, got[:0])
	}); allocs != 0 {
		t.Errorf("a rebound transport's window regrowing allocates %.1f times, want 0", allocs)
	}
}
