package netsim

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/sim"
)

// The network puts every constant-delay event on an engine lane and every
// link its service event (see the comment at the top of network.go). A lane
// decides where an event waits, never when it fires, so a world must do
// exactly the same with no lane at all. The tests here hold it to that: each
// scripted world runs once on a fresh engine and once on an engine whose lanes
// were all taken beforehand, so that every handle netsim gets is a refused one
// and all its events file on the engine's heap.

// boundedQueue is a drop-tail FIFO of at most limit packets.
type boundedQueue struct {
	benchQueue
	limit int
	drops int64
}

func (q *boundedQueue) Enqueue(p *Packet, now sim.Time) bool {
	if q.Len() >= q.limit {
		q.drops++
		return false
	}
	return q.benchQueue.Enqueue(p, now)
}

func (q *boundedQueue) Drops() int64 { return q.drops }

// laneEvent is one delivery ('d') or acknowledgment ('a') a world observed.
type laneEvent struct {
	at   sim.Time
	kind byte
	flow int
	seq  int64
}

// laneWorld is a scripted world under test: a network, its senders, and the
// trace of everything delivered and acknowledged.
type laneWorld struct {
	t       *testing.T
	engine  *sim.Engine
	net     *Network
	senders []*scriptSender
	trace   []laneEvent
}

// scriptSender is a window-limited sender with a finite script: it keeps
// window packets outstanding until it has sent total, one more per
// acknowledgment.
type scriptSender struct {
	w             *laneWorld
	id            int
	port          *Port
	window, total int
	sent          int64
}

func (s *scriptSender) send(now sim.Time) {
	if s.sent >= int64(s.total) {
		return
	}
	p := s.port.NewPacket()
	p.Seq = s.sent
	p.SentAt = now
	s.sent++
	s.port.Send(p, now)
}

func (s *scriptSender) start(now sim.Time) {
	for i := 0; i < s.window; i++ {
		s.send(now)
	}
}

func (s *scriptSender) OnAck(a Ack, now sim.Time) {
	s.w.trace = append(s.w.trace, laneEvent{at: now, kind: 'a', flow: s.id, seq: a.Seq})
	s.send(now)
}

func newLaneWorld(t *testing.T, engine *sim.Engine) *laneWorld {
	t.Helper()
	n, err := NewGraph(engine, GraphConfig{})
	if err != nil {
		t.Fatal(err)
	}
	w := &laneWorld{t: t, engine: engine, net: n}
	n.OnDeliver = func(p *Packet, now sim.Time) {
		w.trace = append(w.trace, laneEvent{at: now, kind: 'd', flow: p.Flow, seq: p.Seq})
	}
	return w
}

func (w *laneWorld) link(name string, rateBps float64, delay sim.Time, q Queue) *Link {
	w.t.Helper()
	l, err := w.net.AddLink(LinkConfig{Name: name, RateBps: rateBps, Delay: delay, Queue: q})
	if err != nil {
		w.t.Fatal(err)
	}
	return l
}

func (w *laneWorld) flow(fwd, rev []*Link, oneWay sim.Time, window, total int) *scriptSender {
	w.t.Helper()
	s := &scriptSender{w: w, id: len(w.senders), window: window, total: total}
	var err error
	if s.port, err = w.net.AttachFlowRoute(s, fwd, rev, oneWay); err != nil {
		w.t.Fatal(err)
	}
	w.senders = append(w.senders, s)
	return s
}

func (w *laneWorld) start() {
	for _, s := range w.senders {
		s.start(w.engine.Now())
	}
}

// counters renders every counter the public API exposes.
func (w *laneWorld) counters() string {
	n := w.net
	out := fmt.Sprintf("now=%d executed=%d pending=%d offered=%d dropped=%d acksDropped=%d faultDropped=%d live=%d",
		w.engine.Now(), w.engine.Executed(), w.engine.Pending(), n.PacketsOffered(), n.PacketsDropped(), n.AcksDropped(), n.FaultDropped(), n.LiveFlows())
	for _, l := range n.Links() {
		out += fmt.Sprintf(" %s[delivered=%d bytes=%d queued=%d drops=%d util=%.9f]",
			l.Name(), l.Delivered(), l.DeliveredBytes(), l.Queue().Len(), l.Queue().Drops(), l.Utilization(w.engine.Now()))
	}
	for _, s := range w.senders {
		r := s.port.Receiver()
		out += fmt.Sprintf(" flow%d[sent=%d bytes=%d received=%d cum=%d]", s.id, s.port.PacketsSent(), s.port.BytesSent(), r.PacketsReceived(), r.CumAck())
	}
	return out
}

// stepFaults is a FaultInjector whose extra delay steps up and back down
// twice — the step down is where a later packet is due before an earlier one
// — with one outage and every 101st delivery lost.
type stepFaults struct{ delivered int }

func (f *stepFaults) Outage(now sim.Time) (bool, sim.Time) {
	if now >= 300*sim.Millisecond && now < 320*sim.Millisecond {
		return true, 320 * sim.Millisecond
	}
	return false, 0
}

func (f *stepFaults) RateScale(sim.Time) float64 { return 1 }

func (f *stepFaults) ExtraDelay(now sim.Time) sim.Time {
	switch {
	case now >= 100*sim.Millisecond && now < 150*sim.Millisecond:
		return 30 * sim.Millisecond
	case now >= 200*sim.Millisecond && now < 210*sim.Millisecond:
		return 2 * sim.Millisecond
	}
	return 0
}

func (f *stepFaults) DropDelivered(sim.Time) bool {
	f.delivered++
	return f.delivered%101 == 0
}

// laneWorlds are the scripted worlds; each returns the world it ran. exhaust
// retakes every lane of the engine after a Reset on the side that must run
// without lanes, and does nothing on the other.
var laneWorlds = map[string]func(t *testing.T, engine *sim.Engine, exhaust func()) *laneWorld{
	// The paper's dumbbell: a delay-free bottleneck with a short buffer and
	// one access delay, so data and acknowledgments share one lane.
	"dumbbell": func(t *testing.T, engine *sim.Engine, exhaust func()) *laneWorld {
		w := newLaneWorld(t, engine)
		l := w.link("bottleneck", 10e6, 0, &boundedQueue{limit: 20})
		for _, window := range []int{8, 16, 30} {
			w.flow([]*Link{l}, nil, 5*sim.Millisecond, window, 400)
		}
		w.start()
		engine.Run(2 * sim.Second)
		return w
	},
	// Two hops with reverse links: acknowledgments travel as packets, and
	// every kind of lane (hop to hop, last hop to either end, pure-delay
	// return) is in use.
	"two hops and a reverse path": func(t *testing.T, engine *sim.Engine, exhaust func()) *laneWorld {
		w := newLaneWorld(t, engine)
		l1 := w.link("l1", 10e6, 3*sim.Millisecond, &boundedQueue{limit: 30})
		l2 := w.link("l2", 8e6, 7*sim.Millisecond, &boundedQueue{limit: 30})
		r1 := w.link("r1", 1e6, 5*sim.Millisecond, &boundedQueue{limit: 10})
		r2 := w.link("r2", 2e6, 2*sim.Millisecond, &boundedQueue{limit: 10})
		w.flow([]*Link{l1, l2}, []*Link{r1, r2}, 4*sim.Millisecond, 25, 500)
		w.flow([]*Link{l2}, nil, 11*sim.Millisecond, 12, 300)
		w.flow([]*Link{l1}, []*Link{r1}, 4*sim.Millisecond, 20, 400)
		w.start()
		engine.Run(3 * sim.Second)
		return w
	},
	// Delay spikes: while the extra delay rises the lane keeps taking the
	// packets, when it falls they are due before the lane's newest entry and
	// file on the heap.
	"delay steps up and back down": func(t *testing.T, engine *sim.Engine, exhaust func()) *laneWorld {
		w := newLaneWorld(t, engine)
		l1 := w.link("l1", 10e6, 3*sim.Millisecond, &benchQueue{})
		l2 := w.link("l2", 10e6, 0, &benchQueue{})
		l1.SetFaults(&stepFaults{})
		l2.SetFaults(&stepFaults{})
		w.flow([]*Link{l1, l2}, nil, 6*sim.Millisecond, 40, 1500)
		w.flow([]*Link{l1}, nil, 6*sim.Millisecond, 20, 800)
		w.start()
		engine.Run(3 * sim.Second)
		return w
	},
	// A flow detached with packets queued, in service and propagating, and
	// re-attached on another route with another delay before they drain.
	"detach and re-attach in flight": func(t *testing.T, engine *sim.Engine, exhaust func()) *laneWorld {
		w := newLaneWorld(t, engine)
		l1 := w.link("l1", 5e6, 4*sim.Millisecond, &benchQueue{})
		l2 := w.link("l2", 5e6, 1*sim.Millisecond, &benchQueue{})
		a := w.flow([]*Link{l1, l2}, nil, 9*sim.Millisecond, 30, 400)
		w.flow([]*Link{l1}, nil, 2*sim.Millisecond, 10, 400)
		w.start()
		engine.Run(40 * sim.Millisecond)
		if err := w.net.DetachFlow(a.port); err != nil {
			t.Fatal(err)
		}
		engine.Run(45 * sim.Millisecond)
		if err := w.net.ReattachFlowRoute(a.port, []*Link{l2}, nil, 13*sim.Millisecond); err != nil {
			t.Fatal(err)
		}
		a.sent, a.total = 0, 200
		a.start(engine.Now())
		engine.Run(3 * sim.Second)
		return w
	},
	// More distinct delays than an engine has lanes: on a fresh engine the
	// first few take lanes and the rest are refused.
	"more delays than lanes": func(t *testing.T, engine *sim.Engine, exhaust func()) *laneWorld {
		w := newLaneWorld(t, engine)
		l := w.link("bottleneck", 20e6, 0, &boundedQueue{limit: 60})
		for i := 0; i < 40; i++ {
			w.flow([]*Link{l}, nil, sim.Time(i+1)*sim.Millisecond, 6, 150)
		}
		w.start()
		engine.Run(2 * sim.Second)
		return w
	},
	// The engine alone is reset between two runs of a world that had gone
	// idle: the ports stay attached with stale handles, so their events wait
	// on the heap, and the link takes a new lane when it next goes busy.
	"engine reset alone": func(t *testing.T, engine *sim.Engine, exhaust func()) *laneWorld {
		w := newLaneWorld(t, engine)
		l1 := w.link("l1", 10e6, 3*sim.Millisecond, &benchQueue{})
		r1 := w.link("r1", 10e6, 1*sim.Millisecond, &benchQueue{})
		w.flow([]*Link{l1}, []*Link{r1}, 4*sim.Millisecond, 10, 200)
		w.flow([]*Link{l1}, nil, 7*sim.Millisecond, 10, 200)
		w.start()
		engine.Run(5 * sim.Second)
		if engine.Pending() != 0 {
			t.Fatalf("the first script left %d events pending", engine.Pending())
		}
		engine.Reset()
		exhaust()
		for _, s := range w.senders {
			s.sent = 0
		}
		w.start()
		engine.Run(5 * sim.Second)
		return w
	},
}

func TestLanesMatchCalendar(t *testing.T) {
	for name, world := range laneWorlds {
		t.Run(name, func(t *testing.T) {
			fresh := world(t, sim.NewEngine(), func() {})
			bare := sim.NewEngine()
			exhaust := func() {
				for i := 0; i < 64; i++ { // well past any cap
					bare.NewLane()
				}
			}
			exhaust()
			taken := world(t, bare, exhaust)

			acked := 0
			for _, ev := range fresh.trace {
				if ev.kind == 'a' {
					acked++
				}
			}
			if acked < 500 {
				t.Fatalf("only %d acknowledgments in the trace; the world is too small to compare", acked)
			}
			if !slices.Equal(fresh.trace, taken.trace) {
				i := 0
				for i < len(fresh.trace) && i < len(taken.trace) && fresh.trace[i] == taken.trace[i] {
					i++
				}
				t.Fatalf("traces of %d and %d events diverge at %d", len(fresh.trace), len(taken.trace), i)
			}
			if a, b := fresh.counters(), taken.counters(); a != b {
				t.Errorf("counters differ:\nwith lanes:    %s\nwithout lanes: %s", a, b)
			}
			// Not part of the comparison, but what makes it one: the fresh side
			// resolved its delays to lanes, one per distinct delay.
			delays := make(map[sim.Time]bool)
			for _, dl := range fresh.net.lanes {
				if delays[dl.delay] {
					t.Errorf("lane list %v holds a delay twice", fresh.net.lanes)
				}
				delays[dl.delay] = true
			}
			if len(delays) == 0 {
				t.Error("the world with lanes resolved no delay to a lane")
			}
		})
	}
}
