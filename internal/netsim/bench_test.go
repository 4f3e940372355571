package netsim

import (
	"runtime"
	"testing"

	"repro/internal/sim"
)

// benchQueue is a minimal FIFO so link benchmarks measure the link service
// path itself rather than any AQM logic. It is a ring that stops allocating
// once it has grown to the standing queue, so a warm benchmark's allocations
// are the network's own.
type benchQueue struct {
	ring        []*Packet
	head, count int
	bytes       int
}

func (q *benchQueue) Enqueue(p *Packet, now sim.Time) bool {
	if q.count == len(q.ring) {
		grown := make([]*Packet, 2*len(q.ring)+8)
		for i := 0; i < q.count; i++ {
			grown[i] = q.ring[(q.head+i)%len(q.ring)]
		}
		q.ring, q.head = grown, 0
	}
	q.ring[(q.head+q.count)%len(q.ring)] = p
	q.count++
	q.bytes += p.Size
	return true
}

func (q *benchQueue) Dequeue(now sim.Time) *Packet {
	if q.count == 0 {
		return nil
	}
	p := q.ring[q.head]
	q.ring[q.head] = nil
	q.head = (q.head + 1) % len(q.ring)
	q.count--
	q.bytes -= p.Size
	return p
}

func (q *benchQueue) Len() int     { return q.count }
func (q *benchQueue) Bytes() int   { return q.bytes }
func (q *benchQueue) Drops() int64 { return 0 }

// BenchmarkFixedRateLinkService measures the per-packet cost of the
// fixed-rate service loop: enqueue, back-to-back transmission events, and
// delivery, 1000 packets per iteration.
func BenchmarkFixedRateLinkService(b *testing.B) {
	const packets = 1000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		engine := sim.NewEngine()
		q := &benchQueue{}
		delivered := 0
		link, err := NewFixedRateLink(engine, q, 1e9, func(p *Packet, now sim.Time) { delivered++ })
		if err != nil {
			b.Fatal(err)
		}
		pkts := make([]Packet, packets)
		b.StartTimer()
		for j := range pkts {
			pkts[j] = Packet{Seq: int64(j), Size: MTU}
			q.Enqueue(&pkts[j], engine.Now())
			link.Offer(engine.Now())
		}
		engine.Run(sim.Minute)
		if delivered != packets {
			b.Fatalf("delivered %d of %d", delivered, packets)
		}
	}
}

// BenchmarkRoundTrip is the netsim layer's rung of the ledger: one ack-clocked
// flow (64 packets in flight) on a warm network, a 100 Mb/s link with 2 ms of
// delay and 5 ms of access delay each way, reported per packet that made the
// whole round trip — send, queue, service, propagation, receiver, and the
// acknowledgment home — over pure delay or, turned into a 40-byte ack packet,
// across a 100 Mb/s reverse link. The engine's heap holds nothing; every
// event rides a lane.
func BenchmarkRoundTrip(b *testing.B) {
	for _, bc := range []struct {
		name    string
		reverse bool
	}{{"return=pure-delay", false}, {"return=reverse-link", true}} {
		b.Run(bc.name, func(b *testing.B) {
			engine := sim.NewEngine()
			n, err := NewGraph(engine, GraphConfig{})
			if err != nil {
				b.Fatal(err)
			}
			fwd, err := n.AddLink(LinkConfig{Name: "fwd", RateBps: 100e6, Delay: 2 * sim.Millisecond, Queue: &benchQueue{}})
			if err != nil {
				b.Fatal(err)
			}
			var rev []*Link
			if bc.reverse {
				r, err := n.AddLink(LinkConfig{Name: "rev", RateBps: 100e6, Delay: 2 * sim.Millisecond, Queue: &benchQueue{}})
				if err != nil {
					b.Fatal(err)
				}
				rev = []*Link{r}
			}
			s := &ackClocked{window: 64}
			if s.port, err = n.AttachFlowRoute(s, []*Link{fwd}, rev, 5*sim.Millisecond); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < s.window; i++ {
				s.send(0)
			}
			// runAcks runs the flow until k more acknowledgments are home.
			runAcks := func(k int64) {
				for target := s.acked + k; s.acked < target; {
					engine.Run(engine.Now() + 10*sim.Millisecond)
				}
			}
			runAcks(10 * int64(s.window)) // warm: pool, lane rings and queue at their high-water marks

			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := s.acked
			b.ResetTimer()
			runAcks(int64(b.N))
			b.StopTimer()
			runtime.ReadMemStats(&after)
			pkts := float64(s.acked - start)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/pkts, "ns/pkt")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/pkts, "allocs/pkt")
		})
	}
}

// BenchmarkNetworkRoundTrip measures the full per-packet journey through a
// dumbbell: port send, bottleneck service, forward propagation, receiver
// acknowledgment, and the ACK's return propagation.
func BenchmarkNetworkRoundTrip(b *testing.B) {
	const packets = 1000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		engine := sim.NewEngine()
		q := &benchQueue{}
		net, err := NewNetwork(engine, Config{LinkRateBps: 1e9, Queue: q})
		if err != nil {
			b.Fatal(err)
		}
		acked := 0
		port, err := net.AttachFlow(SenderFunc(func(a Ack, now sim.Time) { acked++ }), sim.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for j := 0; j < packets; j++ {
			p := port.NewPacket()
			p.Seq = int64(j)
			p.Size = MTU
			port.Send(p, engine.Now())
		}
		engine.Run(sim.Minute)
		if acked != packets {
			b.Fatalf("acked %d of %d", acked, packets)
		}
	}
}
