// Package netsim models the network substrate the paper evaluates on: data
// packets and acknowledgments, the bottleneck link (fixed-rate or
// trace-driven), per-flow receivers, and the single-bottleneck "dumbbell"
// network of Figure 2 that every experiment uses.
//
// The substrate deliberately mirrors the structure of the paper's ns-2
// setup: senders feed a shared bottleneck queue; the queue is served by a
// link whose rate is either constant or given by a cellular trace; delivered
// packets incur a per-flow propagation delay to the receiver; the receiver
// acknowledges every packet; and acknowledgments return to the sender over
// an uncongested reverse path with the same propagation delay.
package netsim

import (
	"repro/internal/sim"
)

// MTU is the default packet size in bytes (data payload plus headers), the
// same segment size used throughout the paper's simulations.
const MTU = 1500

// XCPHeader is the congestion header carried by packets when the sender and
// routers speak XCP (§2, Katabi et al.). The sender fills Cwnd, RTT and the
// requested Demand; routers overwrite Feedback with the per-packet window
// adjustment (in bytes) they allocate.
type XCPHeader struct {
	// CwndBytes is the sender's current congestion window in bytes.
	CwndBytes float64
	// RTT is the sender's current smoothed round-trip time.
	RTT sim.Time
	// Feedback is the per-packet window adjustment in bytes allocated by the
	// bottleneck router (positive or negative).
	Feedback float64
}

// Packet is one data segment traveling from a sender to its receiver, and
// then the acknowledgment traveling back: the receiver writes the Ack into the
// packet, which returns to the sender carrying it — over pure delay as it is,
// or across the flow's reverse links turned into a 40-byte ack packet.
//
// Its bools sit together at the end, so the struct is 128 bytes (two cache
// lines) on 64-bit platforms; TestHotStructSizes holds it there.
type Packet struct {
	// Flow identifies the sender–receiver pair.
	Flow int
	// Seq is the packet's sequence number in packets (0-based).
	Seq int64
	// Size is the packet size in bytes.
	Size int
	// SentAt is the sender's timestamp when the packet was (re)transmitted;
	// it is echoed in the acknowledgment so the sender can compute the RTT
	// and the send_ewma congestion signal.
	SentAt sim.Time
	// XCP, when non-nil, is the XCP congestion header.
	XCP *XCPHeader
	// EnqueuedAt records when the packet entered the bottleneck queue; queue
	// disciplines use it to measure sojourn time (CoDel) and tests use it to
	// verify delay accounting.
	EnqueuedAt sim.Time

	// xcpScratch keeps a recycled packet's XCP header co-allocated across
	// reuses, so XCP flows do not allocate a fresh header per transmission.
	xcpScratch *XCPHeader

	// Route state, maintained by the Network: hop indexes the packet's
	// position in its flow's route; ack is the acknowledgment the receiver
	// wrote, carried home; gen is the attachment generation of the flow that
	// sent the packet, so packets still in flight when their flow detaches
	// (and its slot is possibly reused by a later flow) are recognized as
	// stale and recycled instead of being delivered to the wrong flow.
	hop int
	ack Ack
	gen uint64

	// Retransmit marks retransmitted packets.
	Retransmit bool
	// ECNCapable marks packets from ECN-capable senders (DCTCP); only such
	// packets are marked rather than dropped by ECN queues.
	ECNCapable bool
	// ECNMarked is set by a queue that signals congestion via ECN.
	ECNMarked bool
	// isAck marks a packet turned into an acknowledgment packet, crossing its
	// flow's reverse route.
	isAck bool
}

// EnsureXCP returns the packet's XCP header, attaching a (possibly recycled)
// one if the packet has none. Stampers must use it instead of allocating a
// header directly, so pooled packets keep their header across reuses.
func (p *Packet) EnsureXCP() *XCPHeader {
	if p.XCP == nil {
		if p.xcpScratch == nil {
			p.xcpScratch = new(XCPHeader)
		}
		p.XCP = p.xcpScratch
	}
	return p.XCP
}

// packetPool is a per-engine free list of packets. Engines are
// single-threaded by design, so the pool needs no locking; the network puts
// packets back once the acknowledgment they carry is home (or a queue dropped
// them), and hands them out again to senders.
type packetPool struct {
	free []*Packet
	// all lists every packet the pool allocated, in allocation order (see
	// rewind).
	all []*Packet
}

func (pl *packetPool) get() *Packet {
	if n := len(pl.free); n > 0 {
		p := pl.free[n-1]
		pl.free[n-1] = nil
		pl.free = pl.free[:n-1]
		return p
	}
	p := &Packet{}
	pl.all = append(pl.all, p)
	return p
}

// rewind puts the free list back in allocation order once every packet is
// home, as after Network.Reset. A run cycles its in-flight packets in the
// order they were first handed out — each one freed is the next one taken —
// and ends with them scattered over queues and pending events. Handed out
// again in that scattered order they would be walked in it for the whole of
// the next run; in allocation order, which is address order within the
// allocator's spans, the walk is sequential. On the 10 Gbps world of
// remy_exec, with ~3 000 packets in flight, the difference is 5 % of wall
// time. With a packet still held elsewhere any order is valid and the list
// is left alone.
func (pl *packetPool) rewind() {
	if len(pl.free) != len(pl.all) {
		return
	}
	for i, p := range pl.all {
		pl.free[len(pl.free)-1-i] = p
	}
}

// put zeroes the packet and returns it to the free list.
func (pl *packetPool) put(p *Packet) {
	if p == nil {
		return
	}
	p.detachXCP()
	*p = Packet{xcpScratch: p.xcpScratch}
	pl.free = append(pl.free, p)
}

// detachXCP takes the XCP header off the packet. The header, if one was ever
// attached, is zeroed and kept as scratch for the next use.
func (p *Packet) detachXCP() {
	if p.xcpScratch == nil {
		p.xcpScratch = p.XCP // header attached without EnsureXCP; keep it anyway
	}
	if p.xcpScratch != nil {
		*p.xcpScratch = XCPHeader{}
	}
	p.XCP = nil
}

// turnAround makes a delivered data packet, whose ack the receiver has just
// written, into the acknowledgment packet that carries it across the flow's
// reverse links: size bytes, entering a queue at now, and otherwise exactly
// the fresh packet put and get would hand out — XCP header detached, flags
// clear — with its flow, generation and ack kept. It rewrites the fields in
// place; putting the packet and taking it back would zero all of it only for
// the ack to be copied in again.
//
//repo:hotpath per-packet reverse-path turnaround
func (p *Packet) turnAround(size int, now sim.Time) {
	p.detachXCP()
	p.Seq = 0
	p.Size = size
	p.SentAt = 0
	p.EnqueuedAt = now
	p.hop = 0
	p.Retransmit = false
	p.ECNCapable = false
	p.ECNMarked = false
	p.isAck = true
}

// Ack acknowledges one data packet. The receiver acknowledges every packet
// individually (per-packet ACK clocking, as the paper assumes) and also
// reports the cumulative ack so senders can run standard loss recovery.
//
// Its bools sit together at the end, so the struct is 48 bytes on 64-bit
// platforms; TestHotStructSizes holds it there.
type Ack struct {
	// Flow identifies the sender–receiver pair.
	Flow int
	// Seq is the sequence number of the data packet being acknowledged.
	Seq int64
	// CumAck is the lowest sequence number the receiver has NOT yet
	// received; all packets below CumAck have arrived.
	CumAck int64
	// SentAt echoes the data packet's sender timestamp.
	SentAt sim.Time
	// XCPFeedback carries the router-allocated feedback (bytes) when the
	// data packet had an XCP header.
	XCPFeedback float64
	// ECNEcho is set when the acknowledged packet carried an ECN mark.
	ECNEcho bool
	// HasXCP reports whether XCPFeedback is meaningful.
	HasXCP bool
}

// Queue is a bottleneck queue discipline. Implementations live in
// internal/aqm (DropTail, CoDel, sfqCoDel, ECN marking, XCP router).
//
// Contract: Enqueue returns false if the packet was dropped on arrival.
// Dequeue returns the next packet to transmit, or nil only when the queue is
// empty; disciplines that drop at dequeue time (CoDel) must keep dequeuing
// internally until they find a packet to return or the queue drains.
type Queue interface {
	// Enqueue offers a packet to the queue at the given time. It returns
	// false if the packet was dropped.
	Enqueue(p *Packet, now sim.Time) bool
	// Dequeue removes and returns the next packet to transmit, or nil if the
	// queue is empty.
	Dequeue(now sim.Time) *Packet
	// Len returns the number of queued packets.
	Len() int
	// Bytes returns the number of queued bytes.
	Bytes() int
	// Drops returns the cumulative number of packets dropped by the queue.
	Drops() int64
}

// Sender consumes acknowledgments. The congestion-control transports in
// internal/cc implement it; the network delivers each Ack to the owning
// sender after the reverse-path propagation delay. A transport built after
// its port is bound to it with Port.SetSender.
type Sender interface {
	// OnAck delivers an acknowledgment at simulated time now.
	OnAck(ack Ack, now sim.Time)
}

// SenderFunc adapts a plain function to the Sender interface, which is
// convenient when the real sender must be constructed after the Port (the
// two reference each other).
type SenderFunc func(ack Ack, now sim.Time)

// OnAck implements Sender.
func (f SenderFunc) OnAck(ack Ack, now sim.Time) { f(ack, now) }
