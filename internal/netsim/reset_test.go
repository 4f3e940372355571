package netsim

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// ackClocked is a window-limited sender: it keeps window packets outstanding,
// sending one more for every acknowledgment.
type ackClocked struct {
	port   *Port
	window int
	seq    int64
	acked  int64
}

func (s *ackClocked) send(now sim.Time) {
	p := s.port.NewPacket()
	p.Seq = s.seq
	p.SentAt = now
	s.seq++
	s.port.Send(p, now)
}

func (s *ackClocked) OnAck(a Ack, now sim.Time) {
	s.acked++
	s.send(now)
}

// pooled returns the identity of every packet on the network's free list,
// failing if one is there twice (a double put) or if any packet the pool ever
// allocated is missing from it.
func pooled(t *testing.T, n *Network, what string) map[*Packet]bool {
	t.Helper()
	pkts := make(map[*Packet]bool, len(n.pool.free))
	for _, p := range n.pool.free {
		if pkts[p] {
			t.Fatalf("%s: packet %p pooled twice", what, p)
		}
		pkts[p] = true
	}
	if len(n.pool.free) != len(n.pool.all) {
		t.Fatalf("%s: %d of %d packets pooled", what, len(n.pool.free), len(n.pool.all))
	}
	return pkts
}

// pooledAfterReset resets the network and engine and checks the pool is
// complete and back in allocation order, so the next run takes the
// first-allocated packet first.
func pooledAfterReset(t *testing.T, n *Network, what string) map[*Packet]bool {
	t.Helper()
	n.Reset()
	n.engine.Reset()
	pkts := pooled(t, n, what)
	for i, p := range n.pool.all {
		if n.pool.free[len(n.pool.free)-1-i] != p {
			t.Fatalf("%s: free list not in allocation order at %d", what, i)
		}
	}
	return pkts
}

// TestResetReclaimsInFlight stops a busy two-flow topology at arbitrary
// horizons — with packets queued, in service, between hops, propagating to a
// receiver, and riding home with their acknowledgments both over pure delay
// and as reverse-path ack packets — and resets it. Everything in flight must
// come back to the pool exactly once: the free list holds no pointer twice,
// is back in allocation order, and an identical second run draws only on what
// the first returned, allocating no packet. Whatever is between hops rides an
// engine lane, and CancelArgs has to find it there.
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

	// Flow a crosses two hops and is acknowledged over pure delay (its data
	// packets turn around as they are); flow b's data packets turn into ack
	// packets crossing a reverse link.
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
			s.seq, s.acked = 0, 0
			if err := n.ReattachFlowRoute(s.port, s.port.fwd, s.port.rev, s.port.oneWay); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < s.window; i++ {
				s.send(0)
			}
		}
		engine.Run(horizon)
	}

	ridingHome := int64(0)
	for _, horizon := range []sim.Time{
		0, 1, 2 * sim.Millisecond, 9 * sim.Millisecond, 17 * sim.Millisecond, 31 * sim.Millisecond,
		53*sim.Millisecond + 7, 120 * sim.Millisecond, 777 * sim.Millisecond,
	} {
		run(horizon)
		inFlight := engine.Pending()
		// Flow a loses nothing, so every packet its receiver took whose ack
		// the sender has not seen is on its way home over pure delay.
		ridingHome += a.port.receiver.packetsReceived - a.acked
		// The network's reset takes lane entries out of the engine at once,
		// where heap events stay behind as canceled entries until the
		// engine's own reset. This world has five distinct delays and three
		// links, so everything pending rode a lane.
		n.Reset()
		if left := engine.Pending(); inFlight == 0 || left != 0 {
			t.Errorf("horizon %v: %d of %d pending events were not in lanes", horizon, left, inFlight)
		}
		what := "horizon " + horizon.String()
		pkts := pooledAfterReset(t, n, what)
		if want := a.window + b.window; len(pkts) < want {
			t.Errorf("horizon %v: %d packets pooled after reset, want at least the %d sent (%d events were pending)",
				horizon, len(pkts), want, inFlight)
		}
		run(horizon)
		pkts2 := pooledAfterReset(t, n, what+" (second run)")
		if len(pkts2) != len(pkts) {
			t.Errorf("horizon %v: second run grew the pool: packets %d → %d", horizon, len(pkts), len(pkts2))
		}
		for p := range pkts2 {
			if !pkts[p] {
				t.Fatalf("horizon %v: second run allocated packet %p", horizon, p)
			}
		}
	}
	if ridingHome == 0 {
		t.Error("no horizon caught a packet riding home with its acknowledgment")
	}
}

// staleAckSink counts acknowledgments and keeps the stale ones: each burst's
// packets are numbered from base upward, so an ack below the current base
// belongs to an earlier connection or incarnation.
type staleAckSink struct {
	base  int64
	acks  int
	stale []Ack
}

func (s *staleAckSink) OnAck(a Ack, now sim.Time) {
	s.acks++
	if a.Seq < s.base {
		s.stale = append(s.stale, a)
	}
}

// TestStaleAckPacketRecycled starts a new connection on a port and, later,
// detaches it while acknowledgments are on their way home — riding back over
// pure delay, or queued on and crossing a reverse link. No acknowledgment of
// the old connection or of the detached flow may reach the sender, each
// packet carrying one must go back to the pool exactly once, and after Reset
// the pool must be complete.
func TestStaleAckPacketRecycled(t *testing.T) {
	for _, tc := range []struct {
		name    string
		reverse bool
	}{{"pure delay", false}, {"reverse link", true}} {
		t.Run(tc.name, func(t *testing.T) {
			engine := sim.NewEngine()
			n, err := NewGraph(engine, GraphConfig{})
			if err != nil {
				t.Fatal(err)
			}
			fwd, err := n.AddLink(LinkConfig{Name: "fwd", RateBps: 1e6, Delay: 10 * sim.Millisecond, Queue: &benchQueue{}})
			if err != nil {
				t.Fatal(err)
			}
			var rev []*Link
			if tc.reverse {
				// 40-byte acks at 32 kb/s take 10 ms each, so they queue.
				r, err := n.AddLink(LinkConfig{Name: "rev", RateBps: 32e3, Delay: 10 * sim.Millisecond, Queue: &benchQueue{}})
				if err != nil {
					t.Fatal(err)
				}
				rev = []*Link{r}
			}
			sink := &staleAckSink{}
			port, err := n.AttachFlowRoute(sink, []*Link{fwd}, rev, 50*sim.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			// burst sends ten packets numbered from base and returns a count
			// of their acknowledgments on the way home: written by the
			// receiver, not yet seen by the sender (nothing here is dropped).
			burst := func(base int64) (inFlight func() int64) {
				sink.base, sink.acks = base, 0
				received := port.receiver.PacketsReceived()
				for i := int64(0); i < 10; i++ {
					p := port.NewPacket()
					p.Seq = base + i
					port.Send(p, engine.Now())
				}
				return func() int64 { return port.receiver.PacketsReceived() - received - int64(sink.acks) }
			}

			// Data packets take 12 ms each to serve, then 60 ms to reach the
			// receiver; their acks need 50 ms (pure delay) or 10 ms of queue
			// service plus 60 ms (reverse link) to come home. 100 ms into a
			// burst three acks are on their way and none has arrived.
			inFlight := burst(0)
			engine.Run(100 * sim.Millisecond)
			if inFlight() != 3 || sink.acks != 0 {
				t.Fatalf("before the new connection: %d acks in flight, %d home; want 3 and 0", inFlight(), sink.acks)
			}
			port.NewConnection()
			burst(1000)
			engine.Run(engine.Now() + 2*sim.Second)
			if sink.acks != 10 {
				t.Errorf("new connection: %d acks home, want its 10", sink.acks)
			}

			inFlight = burst(2000)
			engine.Run(engine.Now() + 100*sim.Millisecond)
			if inFlight() != 3 || sink.acks != 0 {
				t.Fatalf("before the detach: %d acks in flight, %d home; want 3 and 0", inFlight(), sink.acks)
			}
			home := sink.acks
			if err := n.DetachFlow(port); err != nil {
				t.Fatal(err)
			}
			sink.base = 3000 // every ack from here on is stale
			engine.Run(engine.Now() + 2*sim.Second)
			if sink.acks != home {
				t.Errorf("detached flow: acks home %d → %d", home, sink.acks)
			}
			if len(sink.stale) != 0 {
				t.Errorf("%d stale acks reached the sender, first %+v", len(sink.stale), sink.stale[0])
			}
			if engine.Pending() != 0 {
				t.Fatalf("%d events still pending after the run drained", engine.Pending())
			}
			// Everything drained: every packet, stale acks included, is home.
			pooled(t, n, "drained")
			pooledAfterReset(t, n, "after reset")
		})
	}
}

// TestReceiveWritesWholeAck hands Receive a packet whose ack field still holds
// an earlier XCP and ECN acknowledgment, as a packet reused without passing
// through the pool would: the in-place writer must overwrite every field, so
// no stale echo survives.
func TestReceiveWritesWholeAck(t *testing.T) {
	r := NewReceiver(0)
	p := &Packet{Flow: 2, Seq: 0, Size: 100, SentAt: 7, ECNMarked: true, XCP: &XCPHeader{Feedback: 123}}
	if a := r.Receive(p); a != &p.ack || !a.ECNEcho || !a.HasXCP || a.XCPFeedback != 123 {
		t.Fatalf("first ack = %+v, want ECN and XCP echoed into the packet", *a)
	}
	p.Seq, p.SentAt, p.ECNMarked, p.XCP = 1, 9, false, nil
	want := Ack{Flow: 2, Seq: 1, CumAck: 2, SentAt: 9}
	if got := *r.Receive(p); got != want {
		t.Errorf("ack of a plain packet = %+v, want %+v", got, want)
	}
}

// TestTurnAroundIsFreshAckPacket holds turnAround to what the pool would hand
// out: putting a delivered packet and taking it back, then stamping it as an
// ack packet, yields field for field what turning it around in place does.
func TestTurnAroundIsFreshAckPacket(t *testing.T) {
	for _, viaEnsure := range []bool{true, false} {
		delivered := func() *Packet {
			p := &Packet{Flow: 3, Seq: 42, Size: MTU, SentAt: 5, EnqueuedAt: 6, Retransmit: true, ECNCapable: true, ECNMarked: true, hop: 2, gen: 9}
			if viaEnsure {
				*p.EnsureXCP() = XCPHeader{CwndBytes: 1, RTT: 2, Feedback: 3}
			} else {
				p.XCP = &XCPHeader{CwndBytes: 1, RTT: 2, Feedback: 3}
			}
			NewReceiver(3).Receive(p)
			return p
		}
		got := delivered()
		got.turnAround(AckBytes, 77)

		var pool packetPool
		p := delivered()
		ack := p.ack
		pool.put(p)
		want := pool.get()
		want.Flow, want.Size, want.isAck, want.ack, want.gen, want.EnqueuedAt = 3, AckBytes, true, ack, 9, 77

		if *got.xcpScratch != *want.xcpScratch {
			t.Errorf("viaEnsure=%v: XCP scratch %+v, want %+v", viaEnsure, *got.xcpScratch, *want.xcpScratch)
		}
		got.xcpScratch, want.xcpScratch = nil, nil
		if *got != *want {
			t.Errorf("viaEnsure=%v: turned around\n %+v\nwant\n %+v", viaEnsure, *got, *want)
		}
	}
}

// rebuildWorld is one topology of TestPoolInvariantsAcrossRebuilds: link
// delays and flows.
type rebuildWorld struct {
	links []sim.Time
	flows []rebuildFlow
}

// rebuildFlow is an ack-clocked flow: its window, forward and reverse routes
// (link indices) and access delay.
type rebuildFlow struct {
	window   int
	fwd, rev []int
	oneWay   sim.Time
}

// TestPoolInvariantsAcrossRebuilds runs the packet-pool checks across
// Network.Rebuild: a network rebuilt from topology to topology — growing,
// shrinking, with and without reverse links — and stopped with packets
// everywhere must hand its whole pool, no packet twice and in allocation
// order, to each next topology. A topology it has built before takes every
// packet, link and port from what the earlier ones left behind.
func TestPoolInvariantsAcrossRebuilds(t *testing.T) {
	type flow = rebuildFlow
	worlds := []rebuildWorld{
		{links: []sim.Time{3 * sim.Millisecond, 7 * sim.Millisecond, 5 * sim.Millisecond},
			flows: []flow{{40, []int{0, 1}, nil, 11 * sim.Millisecond}, {25, []int{0}, []int{2}, 4 * sim.Millisecond}}},
		{links: []sim.Time{2 * sim.Millisecond},
			flows: []flow{{60, []int{0}, nil, 9 * sim.Millisecond}, {60, []int{0}, nil, 13 * sim.Millisecond}, {30, []int{0}, nil, 1}}},
		{links: []sim.Time{0, 4 * sim.Millisecond},
			flows: []flow{{10, []int{1}, []int{0}, 6 * sim.Millisecond}}},
	}
	engine := sim.NewEngine()
	n, err := NewGraph(engine, GraphConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var spares []*ackClocked
	var live []*ackClocked
	seenLinks := make(map[*Link]bool)
	for step, wi := range []int{0, 1, 2, 0, 1, 2, 1, 0} {
		w := worlds[wi]
		what := fmt.Sprintf("step %d (world %d)", step, wi)
		n.Rebuild(GraphConfig{MTU: 1000 + 100*wi})
		engine.Reset()
		pkts := pooled(t, n, what+": after rebuild")
		for i, p := range n.pool.all {
			if n.pool.free[len(n.pool.free)-1-i] != p {
				t.Fatalf("%s: free list not in allocation order at %d", what, i)
			}
		}
		spares = append(spares, live...)
		live = live[:0]

		links := make([]*Link, len(w.links))
		for i, d := range w.links {
			if links[i], err = n.AddLink(LinkConfig{Name: fmt.Sprint("l", i), RateBps: 10e6, Delay: d, Queue: &benchQueue{}}); err != nil {
				t.Fatal(err)
			}
			if step >= len(worlds) && !seenLinks[links[i]] {
				t.Errorf("%s: link %d is new, though the network has had three links before", what, i)
			}
			seenLinks[links[i]] = true
		}
		route := func(idx []int) []*Link {
			var r []*Link
			for _, i := range idx {
				r = append(r, links[i])
			}
			return r
		}
		for _, f := range w.flows {
			var s *ackClocked
			if m := len(spares); m > 0 {
				s, spares = spares[m-1], spares[:m-1]
				if err := n.AttachPort(s.port, route(f.fwd), route(f.rev), f.oneWay); err != nil {
					t.Fatal(err)
				}
			} else {
				s = &ackClocked{}
				if s.port, err = n.AttachFlowRoute(s, route(f.fwd), route(f.rev), f.oneWay); err != nil {
					t.Fatal(err)
				}
			}
			if s.port.PacketsSent() != 0 || s.port.receiver.CumAck() != 0 || s.port.receiver.PacketsReceived() != 0 {
				t.Errorf("%s: reused port is not a new one", what)
			}
			s.window, s.seq, s.acked = f.window, 0, 0
			live = append(live, s)
			for i := 0; i < s.window; i++ {
				s.send(0)
			}
		}
		engine.Run(23*sim.Millisecond + sim.Time(step))
		if engine.Pending() == 0 {
			t.Fatalf("%s: nothing in flight at the horizon", what)
		}
		if step >= len(worlds) && len(n.pool.all) != len(pkts) {
			t.Errorf("%s: a world seen before grew the pool from %d to %d packets", what, len(pkts), len(n.pool.all))
		}
	}
}

// TestAttachPortRenewsReceiver pins the two ways a detached port comes back.
// A receiver's acknowledgments depend on the size of its window ring (see
// recvWindow.advanceFrom), so AttachPort, which makes the port a new flow's,
// must give it exactly a new receiver — while ReattachFlowRoute, another
// incarnation of the same flow, keeps the ring the receiver grew, as it
// always has.
func TestAttachPortRenewsReceiver(t *testing.T) {
	engine := sim.NewEngine()
	n, err := NewGraph(engine, GraphConfig{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := n.AddLink(LinkConfig{Name: "l", RateBps: 10e6, Queue: &benchQueue{}})
	if err != nil {
		t.Fatal(err)
	}
	port, err := n.AttachFlowRoute(SenderFunc(func(Ack, sim.Time) {}), []*Link{l}, nil, sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// The cumulative ack a receiver at 0 reports on taking only seq 256,
	// which lies a new ring's span above it.
	probe := func(r *Receiver) int64 { return r.Receive(&Packet{Seq: 256}).CumAck }
	want := probe(NewReceiver(0))

	r := &port.receiver
	for _, seq := range []int64{1, 5000} {
		r.Receive(&Packet{Seq: seq})
	}
	grown := len(r.received.words)
	if grown <= recvWindowMinWords {
		t.Fatalf("ring did not grow: %d words", grown)
	}
	again := func(attach func(*Port, []*Link, []*Link, sim.Time) error) {
		t.Helper()
		if err := n.DetachFlow(port); err != nil {
			t.Fatal(err)
		}
		if err := attach(port, []*Link{l}, nil, sim.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	again(n.ReattachFlowRoute)
	if len(r.received.words) != grown {
		t.Errorf("ReattachFlowRoute resized the ring: %d → %d words", grown, len(r.received.words))
	}
	if got := probe(r); got == want {
		t.Errorf("a grown ring answers the probe like a new one (%d): if advanceFrom no longer depends on the ring's size, AttachPort need not renew it", got)
	}
	again(n.AttachPort)
	if got := probe(r); got != want || len(r.received.words) != recvWindowMinWords {
		t.Errorf("AttachPort's receiver answers %d with %d ring words, a new receiver %d with %d",
			got, len(r.received.words), want, recvWindowMinWords)
	}
}
