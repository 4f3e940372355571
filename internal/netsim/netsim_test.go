package netsim_test

import (
	"testing"
	"unsafe"

	"repro/internal/aqm"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// collector is a minimal Sender that records the acks it receives.
type collector struct {
	acks []netsim.Ack
	at   []sim.Time
}

func (c *collector) OnAck(a netsim.Ack, now sim.Time) {
	c.acks = append(c.acks, a)
	c.at = append(c.at, now)
}

func TestConfigValidate(t *testing.T) {
	if err := (netsim.Config{}).Validate(); err == nil {
		t.Error("empty config should not validate")
	}
	if err := (netsim.Config{Queue: aqm.MustDropTail(10)}).Validate(); err == nil {
		t.Error("config without rate or trace should not validate")
	}
	ok := netsim.Config{Queue: aqm.MustDropTail(10), LinkRateBps: 1e6}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestNewNetworkErrors(t *testing.T) {
	eng := sim.NewEngine()
	if _, err := netsim.NewNetwork(nil, netsim.Config{Queue: aqm.MustDropTail(1), LinkRateBps: 1}); err == nil {
		t.Error("nil engine accepted")
	}
	if _, err := netsim.NewNetwork(eng, netsim.Config{}); err == nil {
		t.Error("invalid config accepted")
	}
	n, err := netsim.NewNetwork(eng, netsim.Config{Queue: aqm.MustDropTail(1), LinkRateBps: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.AttachFlow(nil, 0); err == nil {
		t.Error("nil sender accepted")
	}
	if _, err := n.AttachFlow(&collector{}, -1); err == nil {
		t.Error("negative delay accepted")
	}
}

func TestSinglePacketRTT(t *testing.T) {
	eng := sim.NewEngine()
	// 15 Mbps link, 75 ms one-way delay: minRTT = 150 ms + 1500*8/15e6 = 150.8 ms.
	net, err := netsim.NewNetwork(eng, netsim.Config{
		Queue:       aqm.MustDropTail(1000),
		LinkRateBps: 15e6,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := &collector{}
	port, err := net.AttachFlow(c, 75*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	net.Start(0)

	sendAt := 10 * sim.Millisecond
	eng.Schedule(sendAt, func(now sim.Time) {
		ok := port.Send(&netsim.Packet{Seq: 0, Size: 1500, SentAt: now}, now)
		if !ok {
			t.Error("send failed")
		}
	})
	eng.Run(sim.Second)

	if len(c.acks) != 1 {
		t.Fatalf("got %d acks, want 1", len(c.acks))
	}
	wantRTT := net.MinRTT(0)
	gotRTT := c.at[0] - sendAt
	if gotRTT != wantRTT {
		t.Errorf("RTT = %v, want %v", gotRTT, wantRTT)
	}
	a := c.acks[0]
	if a.Seq != 0 || a.CumAck != 1 || a.SentAt != sendAt || a.Flow != 0 {
		t.Errorf("ack = %+v", a)
	}
	if port.PacketsSent() != 1 || port.BytesSent() != 1500 {
		t.Error("port counters")
	}
	if net.Link().Delivered() != 1 || net.Link().DeliveredBytes() != 1500 {
		t.Error("link counters")
	}
	if net.PacketsOffered() != 1 || net.PacketsDropped() != 0 {
		t.Error("network counters")
	}
}

func TestMinRTTAndAccessors(t *testing.T) {
	eng := sim.NewEngine()
	net, _ := netsim.NewNetwork(eng, netsim.Config{Queue: aqm.MustDropTail(10), LinkRateBps: 10e6, MTU: 1000})
	if net.MTU() != 1000 {
		t.Error("MTU override")
	}
	if net.MinRTT(0) != 0 {
		t.Error("MinRTT of missing flow should be 0")
	}
	c := &collector{}
	p, _ := net.AttachFlow(c, 50*sim.Millisecond)
	want := 100*sim.Millisecond + sim.FromSeconds(1000*8/10e6)
	if net.MinRTT(0) != want {
		t.Errorf("MinRTT = %v, want %v", net.MinRTT(0), want)
	}
	if net.Flows() != 1 || net.PortFor(0) != p || net.PortFor(5) != nil || net.PortFor(-1) != nil {
		t.Error("flow accessors")
	}
	if p.Flow() != 0 || p.OneWayDelay() != 50*sim.Millisecond || p.Receiver() == nil {
		t.Error("port accessors")
	}
	if net.Engine() != eng || net.Queue() == nil {
		t.Error("network accessors")
	}
}

func TestLinkSerializesPackets(t *testing.T) {
	// Two packets sent back to back: the second is delivered one
	// transmission time after the first.
	eng := sim.NewEngine()
	net, _ := netsim.NewNetwork(eng, netsim.Config{Queue: aqm.MustDropTail(10), LinkRateBps: 1e6})
	c := &collector{}
	port, _ := net.AttachFlow(c, 0)
	net.Start(0)
	eng.Schedule(0, func(now sim.Time) {
		port.Send(&netsim.Packet{Seq: 0, Size: 1500, SentAt: now}, now)
		port.Send(&netsim.Packet{Seq: 1, Size: 1500, SentAt: now}, now)
	})
	eng.Run(sim.Second)
	if len(c.acks) != 2 {
		t.Fatalf("got %d acks", len(c.acks))
	}
	xmit := sim.FromSeconds(1500 * 8 / 1e6)
	if gap := c.at[1] - c.at[0]; gap != xmit {
		t.Errorf("delivery gap = %v, want one transmission time %v", gap, xmit)
	}
	if util := net.Link().Utilization(c.at[1]); util < 0.9 || util > 1.01 {
		t.Errorf("utilization = %v, want ~1 while busy", util)
	}
	if net.Link().Utilization(0) != 0 {
		t.Error("utilization with zero horizon")
	}
	if net.Link().RateBps() != 1e6 {
		t.Error("RateBps")
	}
}

func TestQueueOverflowDropsArePropagated(t *testing.T) {
	eng := sim.NewEngine()
	net, _ := netsim.NewNetwork(eng, netsim.Config{Queue: aqm.MustDropTail(2), LinkRateBps: 1e6})
	c := &collector{}
	port, _ := net.AttachFlow(c, 0)
	net.Start(0)
	dropped := 0
	eng.Schedule(0, func(now sim.Time) {
		for i := int64(0); i < 10; i++ {
			if !port.Send(&netsim.Packet{Seq: i, Size: 1500, SentAt: now}, now) {
				dropped++
			}
		}
	})
	eng.Run(sim.Second)
	if dropped == 0 {
		t.Error("no sends reported dropped despite a 2-packet buffer")
	}
	if net.PacketsDropped() != int64(dropped) {
		t.Errorf("network drop counter %d, sender saw %d", net.PacketsDropped(), dropped)
	}
	// Delivered + dropped = offered.
	if net.Link().Delivered()+net.PacketsDropped() != net.PacketsOffered() {
		t.Error("conservation violated")
	}
}

func TestReceiverCumAckAndReordering(t *testing.T) {
	r := netsim.NewReceiver(3)
	if r.Flow() != 3 {
		t.Error("Flow")
	}
	a0 := r.Receive(&netsim.Packet{Flow: 3, Seq: 0, Size: 100})
	if a0.CumAck != 1 || a0.Seq != 0 {
		t.Errorf("a0 = %+v", a0)
	}
	// Out of order: seq 2 before seq 1.
	a2 := r.Receive(&netsim.Packet{Flow: 3, Seq: 2, Size: 100})
	if a2.CumAck != 1 {
		t.Errorf("cumack after gap = %d, want 1", a2.CumAck)
	}
	a1 := r.Receive(&netsim.Packet{Flow: 3, Seq: 1, Size: 100})
	if a1.CumAck != 3 {
		t.Errorf("cumack after filling gap = %d, want 3", a1.CumAck)
	}
	// Duplicate delivery does not regress state.
	dup := r.Receive(&netsim.Packet{Flow: 3, Seq: 1, Size: 100})
	if dup.CumAck != 3 {
		t.Error("duplicate changed cumack")
	}
	if r.PacketsReceived() != 4 || r.BytesReceived() != 400 {
		t.Error("receiver counters")
	}
	r.Reset()
	if r.CumAck() != 0 {
		t.Error("Reset")
	}
}

func TestReceiverEchoesECNAndXCP(t *testing.T) {
	r := netsim.NewReceiver(0)
	p := &netsim.Packet{Seq: 0, Size: 100, ECNMarked: true, XCP: &netsim.XCPHeader{Feedback: 123}}
	a := r.Receive(p)
	if !a.ECNEcho || !a.HasXCP || a.XCPFeedback != 123 {
		t.Errorf("ack did not echo ECN/XCP: %+v", a)
	}
	plain := r.Receive(&netsim.Packet{Seq: 1, Size: 100})
	if plain.ECNEcho || plain.HasXCP {
		t.Error("plain packet should not echo ECN/XCP")
	}
}

// TestHotStructSizes pins the size of the structs every simulated packet
// moves through: a Packet is two cache lines and carries its Ack home, and
// the Ack is copied once more into the sender. Growing either should be a
// decision made here, not a side effect of adding a field.
func TestHotStructSizes(t *testing.T) {
	if size := unsafe.Sizeof(netsim.Packet{}); size > 128 {
		t.Errorf("netsim.Packet is %d bytes, want at most 128", size)
	}
	if size := unsafe.Sizeof(netsim.Ack{}); size > 48 {
		t.Errorf("netsim.Ack is %d bytes, want at most 48", size)
	}
}

func TestTraceLinkDeliversAtOpportunities(t *testing.T) {
	eng := sim.NewEngine()
	trace := []sim.Time{10 * sim.Millisecond, 20 * sim.Millisecond, 40 * sim.Millisecond}
	net, err := netsim.NewNetwork(eng, netsim.Config{Queue: aqm.MustDropTail(100), Trace: trace})
	if err != nil {
		t.Fatal(err)
	}
	c := &collector{}
	port, _ := net.AttachFlow(c, 0)
	net.Start(0)
	eng.Schedule(0, func(now sim.Time) {
		for i := int64(0); i < 2; i++ {
			port.Send(&netsim.Packet{Seq: i, Size: 1500, SentAt: now}, now)
		}
	})
	eng.Run(sim.Second)
	// Two packets, three opportunities: deliveries at exactly 10 ms and 20 ms.
	if len(c.at) != 2 {
		t.Fatalf("got %d acks", len(c.at))
	}
	if c.at[0] != 10*sim.Millisecond || c.at[1] != 20*sim.Millisecond {
		t.Errorf("deliveries at %v", c.at)
	}
}

func TestTraceLinkLoops(t *testing.T) {
	eng := sim.NewEngine()
	trace := []sim.Time{10 * sim.Millisecond, 20 * sim.Millisecond}
	net, _ := netsim.NewNetwork(eng, netsim.Config{Queue: aqm.MustDropTail(100), Trace: trace, TraceLoop: true})
	c := &collector{}
	port, _ := net.AttachFlow(c, 0)
	net.Start(0)
	eng.Schedule(0, func(now sim.Time) {
		for i := int64(0); i < 4; i++ {
			port.Send(&netsim.Packet{Seq: i, Size: 1500, SentAt: now}, now)
		}
	})
	eng.Run(sim.Second)
	if len(c.at) != 4 {
		t.Fatalf("got %d acks, want 4 (trace should loop)", len(c.at))
	}
	// Second lap is shifted by the trace's final timestamp (20 ms).
	want := []sim.Time{10 * sim.Millisecond, 20 * sim.Millisecond, 30 * sim.Millisecond, 40 * sim.Millisecond}
	for i := range want {
		if c.at[i] != want[i] {
			t.Errorf("delivery %d at %v, want %v", i, c.at[i], want[i])
		}
	}
}

func TestTraceLinkValidation(t *testing.T) {
	eng := sim.NewEngine()
	q := aqm.MustDropTail(10)
	if _, err := netsim.NewTraceLink(eng, q, nil, false, func(*netsim.Packet, sim.Time) {}); err == nil {
		t.Error("empty trace accepted")
	}
	bad := []sim.Time{20, 10}
	if _, err := netsim.NewTraceLink(eng, q, bad, false, func(*netsim.Packet, sim.Time) {}); err == nil {
		t.Error("unsorted trace accepted")
	}
	if _, err := netsim.NewFixedRateLink(eng, q, 0, func(*netsim.Packet, sim.Time) {}); err == nil {
		t.Error("zero-rate link accepted")
	}
	if _, err := netsim.NewFixedRateLink(nil, q, 1e6, func(*netsim.Packet, sim.Time) {}); err == nil {
		t.Error("nil engine accepted")
	}
}

func TestOnDeliverCallback(t *testing.T) {
	eng := sim.NewEngine()
	net, _ := netsim.NewNetwork(eng, netsim.Config{Queue: aqm.MustDropTail(10), LinkRateBps: 1e6})
	c := &collector{}
	port, _ := net.AttachFlow(c, 10*sim.Millisecond)
	var delivered []int64
	net.OnDeliver = func(p *netsim.Packet, now sim.Time) { delivered = append(delivered, p.Seq) }
	net.Start(0)
	eng.Schedule(0, func(now sim.Time) {
		port.Send(&netsim.Packet{Seq: 7, Size: 1500, SentAt: now}, now)
	})
	eng.Run(sim.Second)
	if len(delivered) != 1 || delivered[0] != 7 {
		t.Errorf("OnDeliver saw %v", delivered)
	}
}

func TestMultipleFlowsShareBottleneck(t *testing.T) {
	eng := sim.NewEngine()
	net, _ := netsim.NewNetwork(eng, netsim.Config{Queue: aqm.MustDropTail(1000), LinkRateBps: 10e6})
	const flows = 4
	cs := make([]*collector, flows)
	ports := make([]*netsim.Port, flows)
	for i := 0; i < flows; i++ {
		cs[i] = &collector{}
		ports[i], _ = net.AttachFlow(cs[i], 20*sim.Millisecond)
	}
	net.Start(0)
	eng.Schedule(0, func(now sim.Time) {
		for i := 0; i < flows; i++ {
			for s := int64(0); s < 25; s++ {
				ports[i].Send(&netsim.Packet{Seq: s, Size: 1500, SentAt: now}, now)
			}
		}
	})
	eng.Run(2 * sim.Second)
	for i := 0; i < flows; i++ {
		if len(cs[i].acks) != 25 {
			t.Errorf("flow %d received %d acks, want 25", i, len(cs[i].acks))
		}
	}
	if net.Link().Delivered() != 100 {
		t.Errorf("link delivered %d packets", net.Link().Delivered())
	}
}
