package netsim

import (
	"testing"

	"repro/internal/sim"
)

// ackClocked is a window-limited sender: it keeps window packets outstanding,
// sending one more for every acknowledgment.
type ackClocked struct {
	port   *Port
	window int
	seq    int64
}

func (s *ackClocked) send(now sim.Time) {
	p := s.port.NewPacket()
	p.Seq = s.seq
	p.SentAt = now
	s.seq++
	s.port.Send(p, now)
}

func (s *ackClocked) OnAck(a Ack, now sim.Time) { s.send(now) }

// TestResetReclaimsInFlight stops a busy two-flow topology at arbitrary
// horizons — with packets queued, in service, between hops, propagating to a
// receiver, and acknowledgments returning both as carriers and as reverse-path
// packets — and resets it. Everything in flight must come back to the pools
// exactly once: the free lists hold no pointer twice, are back in allocation
// order, and an identical second run draws only on what the first returned,
// allocating no packet or carrier. Whatever is between hops rides an engine
// lane, and CancelArgs has to find it there.
func TestResetReclaimsInFlight(t *testing.T) {
	engine := sim.NewEngine()
	n, err := NewGraph(engine, GraphConfig{})
	if err != nil {
		t.Fatal(err)
	}
	link := func(name string, delay sim.Time) *Link {
		l, err := n.AddLink(LinkConfig{Name: name, RateBps: 10e6, Delay: delay, Queue: &benchQueue{}})
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	l1, l2, r1 := link("l1", 3*sim.Millisecond), link("l2", 7*sim.Millisecond), link("r1", 5*sim.Millisecond)

	// Flow a crosses two hops and is acknowledged over pure delay (carriers);
	// flow b's acknowledgments are packets crossing a reverse link.
	a := &ackClocked{window: 40}
	b := &ackClocked{window: 25}
	if a.port, err = n.AttachFlowRoute(a, []*Link{l1, l2}, nil, 11*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if b.port, err = n.AttachFlowRoute(b, []*Link{l1}, []*Link{r1}, 4*sim.Millisecond); err != nil {
		t.Fatal(err)
	}

	run := func(horizon sim.Time) {
		n.Reset()
		engine.Reset()
		for _, s := range []*ackClocked{a, b} {
			s.seq = 0
			if err := n.ReattachFlowRoute(s.port, s.port.fwd, s.port.rev, s.port.oneWay); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < s.window; i++ {
				s.send(0)
			}
		}
		engine.Run(horizon)
	}
	// pools resets the network and returns the identity of everything pooled.
	pools := func(horizon sim.Time) (map[*Packet]bool, map[*ackCarrier]bool) {
		n.Reset()
		engine.Reset()
		pkts := make(map[*Packet]bool, len(n.pool.free))
		for _, p := range n.pool.free {
			if pkts[p] {
				t.Fatalf("horizon %v: packet %p pooled twice", horizon, p)
			}
			pkts[p] = true
		}
		carriers := make(map[*ackCarrier]bool, len(n.ackFree))
		for _, c := range n.ackFree {
			if carriers[c] {
				t.Fatalf("horizon %v: ack carrier %p pooled twice", horizon, c)
			}
			carriers[c] = true
		}
		// With everything home the lists are back in allocation order, so
		// the next run takes the first-allocated packet first.
		if len(n.pool.free) != len(n.pool.all) || len(n.ackFree) != len(n.ackAll) {
			t.Fatalf("horizon %v: %d of %d packets and %d of %d carriers pooled after reset",
				horizon, len(n.pool.free), len(n.pool.all), len(n.ackFree), len(n.ackAll))
		}
		for i, p := range n.pool.all {
			if n.pool.free[len(n.pool.free)-1-i] != p {
				t.Fatalf("horizon %v: free list not in allocation order at %d", horizon, i)
			}
		}
		return pkts, carriers
	}

	for _, horizon := range []sim.Time{
		0, 1, 2 * sim.Millisecond, 9 * sim.Millisecond, 17 * sim.Millisecond, 31 * sim.Millisecond,
		53*sim.Millisecond + 7, 120 * sim.Millisecond, 777 * sim.Millisecond,
	} {
		run(horizon)
		inFlight := engine.Pending()
		// The network's reset takes lane entries out of the engine at once,
		// where heap events stay behind as canceled entries until the
		// engine's own reset. This world has five distinct delays and three
		// links, so everything pending rode a lane.
		n.Reset()
		if left := engine.Pending(); inFlight == 0 || left != 0 {
			t.Errorf("horizon %v: %d of %d pending events were not in lanes", horizon, left, inFlight)
		}
		pkts, carriers := pools(horizon)
		if want := a.window + b.window; len(pkts) < want {
			t.Errorf("horizon %v: %d packets pooled after reset, want at least the %d sent (%d events were pending)",
				horizon, len(pkts), want, inFlight)
		}
		run(horizon)
		pkts2, carriers2 := pools(horizon)
		if len(pkts2) != len(pkts) || len(carriers2) != len(carriers) {
			t.Errorf("horizon %v: second run grew the pools: packets %d → %d, carriers %d → %d",
				horizon, len(pkts), len(pkts2), len(carriers), len(carriers2))
		}
		for p := range pkts2 {
			if !pkts[p] {
				t.Fatalf("horizon %v: second run allocated packet %p", horizon, p)
			}
		}
		for c := range carriers2 {
			if !carriers[c] {
				t.Fatalf("horizon %v: second run allocated ack carrier %p", horizon, c)
			}
		}
	}
}
