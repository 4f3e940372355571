package netsim

import (
	"fmt"

	"repro/internal/sim"
)

// This file is the directed-graph topology engine. A Network owns a set of
// named links — each with its own service model (fixed-rate or trace-driven),
// one-way propagation delay and queue discipline — and a set of flows that
// follow explicit multi-hop routes across those links. Data packets traverse
// the flow's forward route hop by hop; acknowledgments either return over a
// pure propagation delay (the paper's uncongested reverse path) or, when the
// flow declares a reverse route, travel as real packets through the reverse
// links' queues, so a slow or congested ACK channel throttles the ACK clock.
//
// The classic single-bottleneck dumbbell of Figure 2 is the degenerate graph
// with one link and no reverse routes; NewNetwork compiles its Config to
// exactly that, scheduling the identical event sequence the hard-wired
// dumbbell used to, so golden fixtures recorded before the generalization
// remain byte-identical.
//
// Flows may attach and detach at runtime (churn scenarios spawn a flow per
// arrival and retire it on completion). Every attachment gets a fresh
// generation number, stamped on each packet the flow sends; packets still in
// flight when their flow detaches — sitting in queues, in service, or
// propagating — fail the generation check on delivery and are recycled
// instead of reaching whichever flow later reuses the slot. Detached ports
// can be re-attached (ReattachFlowRoute) without allocating, so a churning
// steady state recycles ports just like it recycles packets.
//
// Every event between hops is scheduled a constant delay after the clock — a
// packet leaving a link for the next hop (the link's delay), for its receiver
// or sender (the last link's delay plus the flow's access delay), an
// acknowledgment returning over pure delay (the access delay) — so each such
// stream is sorted by construction and waits in an engine lane (sim.Lane)
// rather than on the engine's heap. Lanes are keyed by the nominal delay and shared
// by everything with that delay: in the paper's dumbbell, with its delay-free
// link and one RTT, data and acknowledgments of every flow ride one lane. A
// fault's extra delay is simply added to the time; the lane takes the event
// while times keep rising (a spike beginning) and the heap takes it when
// they do not (a spike ending). Either way it fires where it always did.

// AckBytes is the default size of acknowledgment packets traversing
// reverse-path links (a TCP ACK without options).
const AckBytes = 40

// GraphConfig configures an empty topology network.
type GraphConfig struct {
	// MTU is the data segment size in bytes; DefaultMTU if zero.
	MTU int
	// AckBytes is the acknowledgment packet size used on reverse-path links;
	// the AckBytes constant if zero.
	AckBytes int
}

// LinkConfig describes one directed link of the topology.
type LinkConfig struct {
	// Name identifies the link in routes; auto-generated if empty.
	Name string
	// RateBps is the service rate in bits per second. Ignored when Trace is
	// non-empty.
	RateBps float64
	// Trace, when non-empty, makes the link trace-driven.
	Trace []sim.Time
	// TraceLoop repeats the trace when it runs out.
	TraceLoop bool
	// Delay is the link's one-way propagation delay, applied after service.
	Delay sim.Time
	// Queue is the link's queue discipline.
	Queue Queue
}

// Network is an instantiated topology: flows follow explicit routes over a
// set of links; each flow additionally has a per-flow access propagation
// delay on each direction (its share of the path's RTT that is not owned by
// any shared link).
type Network struct {
	engine   *sim.Engine
	links    []*Link
	byName   map[string]*Link
	mtu      int
	ackBytes int
	// spareLinks are the links of the topologies this network was rebuilt
	// from (see Rebuild), for AddLink to reuse.
	spareLinks []*Link

	flows []*Port
	// freeSlots lists detached flow slots available for reuse (LIFO, so a
	// churning population stays compact); nextGen is the monotonic attachment
	// generation counter — generations never repeat within a network, so a
	// stale packet can never collide with a reused slot's new occupant.
	freeSlots []int
	nextGen   uint64
	liveFlows int
	// runGen is nextGen as of the last Reset: a port whose generation is no
	// later was last attached or connected in an earlier run.
	runGen uint64

	// OnDeliver, if set, is invoked for every data packet delivered to a
	// receiver (used by the Figure 6 sequence-plot experiment). Once the
	// callback returns the packet turns around to carry its acknowledgment
	// home; observers must copy what they need rather than retain the pointer.
	OnDeliver func(p *Packet, now sim.Time)

	// pool recycles packets through the send → queue → link → receiver →
	// ack → sender cycle, keeping the per-packet path allocation-free. A
	// packet goes home with its own acknowledgment, so one round trip takes
	// one packet.
	pool packetPool

	propApply func(now sim.Time, arg any)
	ackApply  func(now sim.Time, arg any)
	hopApply  func(now sim.Time, arg any)

	// lanes are the engine lanes taken so far, one per distinct nominal delay
	// (see laneFor).
	lanes []delayLane

	packetsOffered int64
	packetsDropped int64
	acksDropped    int64
}

// delayLane is the engine lane for events scheduled delay after the clock.
type delayLane struct {
	delay sim.Time
	lane  sim.Lane
}

// Port is one flow's attachment point to the network. The sender transmits
// by calling Send; the network delivers acknowledgments to the attached
// Sender once they have crossed the flow's reverse path.
type Port struct {
	net    *Network
	flow   int
	sender Sender
	// oneWay is the flow's access propagation delay in each direction: the
	// part of the minimum RTT not owned by any link. For a dumbbell flow it is
	// half the two-way propagation delay, as in the paper's setup.
	oneWay sim.Time
	// fwd is the forward route (data direction); rev is the reverse route
	// (acknowledgments). An empty rev means the uncongested pure-delay return
	// path of the paper. Both retain their capacity across detach/reattach
	// cycles so respawning a flow does not allocate.
	fwd, rev []*Link

	// gen is the port's current attachment generation (see Network.nextGen);
	// attached is false between DetachFlow and the next ReattachFlowRoute.
	gen      uint64
	attached bool

	// Engine lanes, resolved by register: dataLane carries packets from the
	// last forward link to the receiver, ackLane acknowledgments to the sender
	// — from the receiver over pure delay, or from the last reverse link.
	dataLane, ackLane sim.Lane

	packetsSent int64
	bytesSent   int64

	// receiver is held in the port, not beside it: the receiver writes every
	// packet's acknowledgment, and next to the port fields the delivery has
	// just read it costs no pointer chase and no cache line of its own.
	receiver Receiver
}

// NewGraph builds an empty topology network on the engine. Links are added
// with AddLink and flows with AttachFlowRoute.
func NewGraph(engine *sim.Engine, cfg GraphConfig) (*Network, error) {
	if engine == nil {
		return nil, fmt.Errorf("netsim: nil engine")
	}
	n := &Network{engine: engine, byName: make(map[string]*Link)}
	n.propApply = n.onPropagated
	n.ackApply = n.onAckArrived
	n.hopApply = n.onHopArrived
	n.setSizes(cfg)
	return n, nil
}

// setSizes takes the segment and acknowledgment sizes from cfg, defaulting
// the zeros.
func (n *Network) setSizes(cfg GraphConfig) {
	n.mtu = cfg.MTU
	if n.mtu <= 0 {
		n.mtu = MTU
	}
	n.ackBytes = cfg.AckBytes
	if n.ackBytes <= 0 {
		n.ackBytes = AckBytes
	}
}

// Rebuild empties the network for another topology on the same engine, as
// NewGraph(engine, cfg) would build it, out of what the old one leaves
// behind. It resets the network — so, like Reset, it must run before the
// engine is reset — and then removes every link; AddLink reuses them. The
// packet pool, whole and rewound by the reset, serves the new topology, and
// the flow-slot, lane and link-name tables keep their capacity. Ports attached
// before stay valid, for AttachPort to make them a new topology's.
func (n *Network) Rebuild(cfg GraphConfig) {
	n.Reset()
	for i, l := range n.links {
		// Drop the old world's queue, trace and fault state; the callbacks
		// bound to the link stay for its next use.
		l.configure(nil, nil, 0, nil, false, l.deliver)
		n.spareLinks = append(n.spareLinks, l)
		n.links[i] = nil
	}
	n.links = n.links[:0]
	clear(n.byName)
	n.OnDeliver = nil
	n.setSizes(cfg)
}

// AddLink creates a link from the config and adds it to the topology.
func (n *Network) AddLink(cfg LinkConfig) (*Link, error) {
	name := cfg.Name
	if name == "" {
		name = fmt.Sprintf("link%d", len(n.links))
	}
	if _, dup := n.byName[name]; dup {
		return nil, fmt.Errorf("netsim: duplicate link %q", name)
	}
	if cfg.Delay < 0 {
		return nil, fmt.Errorf("netsim: link %q has negative delay", name)
	}
	if cfg.Queue == nil {
		return nil, fmt.Errorf("netsim: link %q has no queue", name)
	}
	var err error
	if len(cfg.Trace) > 0 {
		err = checkTrace(n.engine, cfg.Queue, cfg.Trace, noDeliver)
	} else {
		err = checkFixedRate(n.engine, cfg.Queue, cfg.RateBps, noDeliver)
	}
	if err != nil {
		return nil, fmt.Errorf("netsim: link %q: %w", name, err)
	}
	var link *Link
	if m := len(n.spareLinks); m > 0 {
		link = n.spareLinks[m-1]
		n.spareLinks[m-1] = nil
		n.spareLinks = n.spareLinks[:m-1]
	} else {
		// The deliver closure captures the link it serves, which is why it
		// is made here and kept with the link for good.
		link = new(Link)
		l := link
		link.deliver = func(p *Packet, now sim.Time) { n.onLinkDelivered(l, p, now) }
	}
	link.configure(n.engine, cfg.Queue, cfg.RateBps, cfg.Trace, cfg.TraceLoop, link.deliver)
	link.name = name
	link.delay = cfg.Delay
	n.links = append(n.links, link)
	n.byName[name] = link
	return link, nil
}

// noDeliver stands in for the delivery callback while AddLink checks a link
// config: the network's own callback is only made once the check has passed.
func noDeliver(*Packet, sim.Time) {}

// Start arms every link (needed for trace-driven links).
func (n *Network) Start(now sim.Time) {
	for _, l := range n.links {
		l.Start(now)
	}
}

// Engine returns the simulation engine the network runs on.
func (n *Network) Engine() *sim.Engine { return n.engine }

// Link exposes the primary link — the first one added — for statistics. For
// a compiled dumbbell this is the bottleneck.
func (n *Network) Link() *Link {
	if len(n.links) == 0 {
		return nil
	}
	return n.links[0]
}

// Links returns every link in addition order.
func (n *Network) Links() []*Link { return n.links }

// LinkByName returns the named link, or nil.
func (n *Network) LinkByName(name string) *Link { return n.byName[name] }

// Queue exposes the primary link's queue for statistics.
func (n *Network) Queue() Queue {
	l := n.Link()
	if l == nil {
		return nil
	}
	return l.queue
}

// MTU returns the data segment size in bytes.
func (n *Network) MTU() int { return n.mtu }

// PacketsOffered returns the number of data packets senders have offered to
// their first-hop queues.
func (n *Network) PacketsOffered() int64 { return n.packetsOffered }

// PacketsDropped returns the number of data packets dropped at any hop on
// arrival at a queue.
func (n *Network) PacketsDropped() int64 { return n.packetsDropped }

// AcksDropped returns the number of acknowledgment packets dropped on
// reverse-path links.
func (n *Network) AcksDropped() int64 { return n.acksDropped }

// FaultDropped returns the number of packets (data and acks) destroyed by
// fault-injected burst loss across all links. These are counted separately
// from PacketsDropped/AcksDropped, which keep their long-standing meaning of
// queue drops.
func (n *Network) FaultDropped() int64 {
	var total int64
	for _, l := range n.links {
		total += l.faultDropped
	}
	return total
}

// AttachFlow adds a flow routed over the primary link with the given one-way
// access propagation delay and a pure-delay reverse path — the dumbbell
// attachment of Figure 2. Flows are numbered in attachment order.
func (n *Network) AttachFlow(sender Sender, oneWay sim.Time) (*Port, error) {
	if len(n.links) == 0 {
		return nil, fmt.Errorf("netsim: AttachFlow on a network with no links")
	}
	return n.AttachFlowRoute(sender, []*Link{n.links[0]}, nil, oneWay)
}

// AttachFlowRoute adds a flow following the given forward and reverse routes.
// fwd must name at least one link; an empty rev gives the flow the paper's
// uncongested pure-delay return path. oneWay is the flow's access propagation
// delay in each direction, on top of the routes' per-link delays.
func (n *Network) AttachFlowRoute(sender Sender, fwd, rev []*Link, oneWay sim.Time) (*Port, error) {
	if sender == nil {
		return nil, fmt.Errorf("netsim: AttachFlowRoute with nil sender")
	}
	if err := n.validateRoutes(fwd, rev, oneWay); err != nil {
		return nil, err
	}
	p := &Port{
		net:    n,
		sender: sender,
		oneWay: oneWay,
		fwd:    append([]*Link(nil), fwd...),
		rev:    append([]*Link(nil), rev...),
	}
	n.register(p)
	return p, nil
}

// ReattachFlowRoute re-registers a previously detached port with (possibly
// new) routes. The port keeps its sender and receiver and reuses its route
// slices' capacity, so respawning a flow through a warm port allocates
// nothing; the receiver is reset so the new incarnation starts with fresh
// cumulative-ack state regardless of what the previous one received. A port
// last attached before the network's latest Reset gets a new receiver's
// state, as AttachPort gives it: what an earlier run left in it must not
// reach this run's acknowledgments (see recvWindow.advanceFrom). The port may
// land in a different slot than it previously occupied.
func (n *Network) ReattachFlowRoute(p *Port, fwd, rev []*Link, oneWay sim.Time) error {
	if err := n.reattachable(p, fwd, rev, oneWay); err != nil {
		return err
	}
	if p.gen <= n.runGen {
		p.receiver.renew()
	} else {
		p.receiver.Reset()
	}
	n.reattach(p, fwd, rev, oneWay)
	return nil
}

// AttachPort attaches a detached port of this network as the port of a new
// flow: the same as AttachFlowRoute with the port's sender, but made out of
// p. Its counters start at zero and its receiver is a new receiver's — empty,
// with the window ring a new one starts with, which the receiver's
// acknowledgments depend on (see recvWindow.advanceFrom) — and it keeps only
// buffer capacity. A session building a new world reuses the ports of the old
// one this way; ReattachFlowRoute is for another incarnation of the same flow.
func (n *Network) AttachPort(p *Port, fwd, rev []*Link, oneWay sim.Time) error {
	if err := n.reattachable(p, fwd, rev, oneWay); err != nil {
		return err
	}
	p.packetsSent, p.bytesSent = 0, 0
	p.receiver.renew()
	n.reattach(p, fwd, rev, oneWay)
	return nil
}

func (n *Network) reattachable(p *Port, fwd, rev []*Link, oneWay sim.Time) error {
	if p == nil || p.net != n {
		return fmt.Errorf("netsim: ReattachFlowRoute with a foreign or nil port")
	}
	if p.attached {
		return fmt.Errorf("netsim: port for flow %d is still attached", p.flow)
	}
	return n.validateRoutes(fwd, rev, oneWay)
}

func (n *Network) reattach(p *Port, fwd, rev []*Link, oneWay sim.Time) {
	p.oneWay = oneWay
	p.fwd = append(p.fwd[:0], fwd...)
	p.rev = append(p.rev[:0], rev...)
	n.register(p)
}

// DetachFlow removes a flow from the network. Packets of the flow still in
// flight keep draining through queues and links but fail the generation
// check on delivery and are recycled; they can never reach a flow that later
// reuses the slot. The port itself stays valid for ReattachFlowRoute.
func (n *Network) DetachFlow(p *Port) error {
	if p == nil || p.net != n || !p.attached {
		return fmt.Errorf("netsim: DetachFlow on a port that is not attached here")
	}
	if p.flow >= len(n.flows) || n.flows[p.flow] != p {
		return fmt.Errorf("netsim: DetachFlow port/slot mismatch for flow %d", p.flow)
	}
	n.flows[p.flow] = nil
	n.freeSlots = append(n.freeSlots, p.flow)
	p.attached = false
	n.liveFlows--
	return nil
}

// validateRoutes checks a flow's routes and access delay without allocating.
func (n *Network) validateRoutes(fwd, rev []*Link, oneWay sim.Time) error {
	if oneWay < 0 {
		return fmt.Errorf("netsim: negative propagation delay")
	}
	if len(fwd) == 0 {
		return fmt.Errorf("netsim: flow needs at least one forward link")
	}
	for _, route := range [2][]*Link{fwd, rev} {
		for _, l := range route {
			if l == nil {
				return fmt.Errorf("netsim: route contains a nil link")
			}
			if n.byName[l.name] != l {
				return fmt.Errorf("netsim: route link %q does not belong to this network", l.name)
			}
		}
	}
	return nil
}

// laneFor returns the engine lane for events scheduled delay after the clock,
// taking a new one for a delay not seen since the engine was last reset (Reset
// drops every lane, so the handles go stale together). Past the engine's cap
// the handle it gets files on the heap; it is kept like any other.
func (n *Network) laneFor(delay sim.Time) sim.Lane {
	if len(n.lanes) > 0 && !n.lanes[0].lane.Live() {
		n.lanes = n.lanes[:0]
	}
	for _, dl := range n.lanes {
		if dl.delay == delay {
			return dl.lane
		}
	}
	lane := n.engine.NewLane()
	n.lanes = append(n.lanes, delayLane{delay: delay, lane: lane})
	return lane
}

// resolveLanes gives the port and the links it crosses mid-route the lanes of
// their delays. It runs once per attachment, never per packet; if the engine
// is reset while the port stays attached the handles go stale and its events
// wait on the heap until it registers again.
func (n *Network) resolveLanes(p *Port) {
	last := len(p.fwd) - 1
	p.dataLane = n.laneFor(p.fwd[last].delay + p.oneWay)
	for _, l := range p.fwd[:last] {
		l.hopLane = n.laneFor(l.delay)
	}
	if len(p.rev) == 0 {
		p.ackLane = n.laneFor(p.oneWay)
		return
	}
	last = len(p.rev) - 1
	p.ackLane = n.laneFor(p.rev[last].delay + p.oneWay)
	for _, l := range p.rev[:last] {
		l.hopLane = n.laneFor(l.delay)
	}
}

// register places the port in a flow slot (reusing a freed one if available),
// stamps a fresh attachment generation and resolves the port's lanes.
func (n *Network) register(p *Port) {
	var slot int
	if m := len(n.freeSlots); m > 0 {
		slot = n.freeSlots[m-1]
		n.freeSlots = n.freeSlots[:m-1]
		n.flows[slot] = p
	} else {
		slot = len(n.flows)
		n.flows = append(n.flows, p)
	}
	p.flow = slot
	p.receiver.flow = slot
	n.nextGen++
	p.gen = n.nextGen
	p.attached = true
	n.liveFlows++
	n.resolveLanes(p)
}

// Flows returns the number of flow slots ever created (attachment order
// indexes into PortFor); detached slots count until they are reused.
func (n *Network) Flows() int { return len(n.flows) }

// LiveFlows returns the number of currently attached flows.
func (n *Network) LiveFlows() int { return n.liveFlows }

// PortFor returns the port of flow i (nil if out of range); tests and the
// experiment harness use it to read per-flow counters.
func (n *Network) PortFor(i int) *Port {
	if i < 0 || i >= len(n.flows) {
		return nil
	}
	return n.flows[i]
}

// MinRTT returns a flow's minimum achievable round-trip time: the two access
// propagation delays plus, for every link on the forward route, its delay and
// one MTU transmission time, and for every link on the reverse route, its
// delay and one acknowledgment transmission time (zero transmission time for
// trace-driven links, whose delivery schedule already embodies service time).
func (n *Network) MinRTT(flow int) sim.Time {
	p := n.PortFor(flow)
	if p == nil {
		return 0
	}
	rtt := 2 * p.oneWay
	for _, l := range p.fwd {
		rtt += l.delay
		if l.rateBps > 0 {
			rtt += sim.FromSeconds(float64(n.mtu) * 8 / l.rateBps)
		}
	}
	for _, l := range p.rev {
		rtt += l.delay
		if l.rateBps > 0 {
			rtt += sim.FromSeconds(float64(n.ackBytes) * 8 / l.rateBps)
		}
	}
	return rtt
}

// onLinkDelivered runs when a link completes service of a packet: the packet
// propagates over the link's delay toward the next hop of its route, or — at
// the last hop — toward the flow's receiver (data) or sender (ack).
//
//repo:hotpath per-packet bottleneck exit
func (n *Network) onLinkDelivered(l *Link, p *Packet, now sim.Time) {
	delay := l.delay
	if l.faults != nil {
		// The loss process acts on every packet the link transmits — stale
		// ones included — so the burst chain advances identically whether or
		// not the packet's flow is still attached.
		if l.faults.DropDelivered(now) {
			l.faultDropped++
			n.pool.put(p)
			return
		}
		delay += l.faults.ExtraDelay(now)
	}
	port := n.PortFor(p.Flow)
	if port == nil || port.gen != p.gen {
		n.pool.put(p) // stale packet of a detached flow
		return
	}
	route := port.fwd
	if p.isAck {
		route = port.rev
	}
	if p.hop+1 < len(route) {
		p.hop++
		l.hopLane.ScheduleArg(now+delay, n.hopApply, p)
		return
	}
	if p.isAck {
		port.ackLane.ScheduleArg(now+delay+port.oneWay, n.ackApply, p)
		return
	}
	port.dataLane.ScheduleArg(now+delay+port.oneWay, n.propApply, p)
}

// onHopArrived runs when a packet reaches an intermediate hop of its route:
// it joins that link's queue (or is dropped there).
//
//repo:hotpath per-packet multi-hop forwarding
func (n *Network) onHopArrived(t sim.Time, arg any) {
	p := arg.(*Packet)
	port := n.flows[p.Flow]
	if port == nil || port.gen != p.gen {
		n.pool.put(p) // stale packet of a detached flow
		return
	}
	route := port.fwd
	if p.isAck {
		route = port.rev
	}
	l := route[p.hop]
	p.EnqueuedAt = t
	if !l.queue.Enqueue(p, t) {
		if p.isAck {
			n.acksDropped++
		} else {
			n.packetsDropped++
		}
		n.pool.put(p)
		return
	}
	l.Offer(t)
}

// onPropagated runs when a data packet reaches its receiver: the receiver
// writes the acknowledgment into the packet, observers are notified, and the
// packet carries the acknowledgment back — as it is, over pure delay, when the
// flow has no reverse links, or turned into an ack packet entering the first
// reverse link's queue.
//
//repo:hotpath per-packet receiver delivery
func (n *Network) onPropagated(t sim.Time, arg any) {
	p := arg.(*Packet)
	port := n.flows[p.Flow]
	if port == nil || port.gen != p.gen {
		n.pool.put(p) // stale packet of a detached flow
		return
	}
	port.receiver.Receive(p)
	if n.OnDeliver != nil {
		n.OnDeliver(p, t)
	}
	if len(port.rev) == 0 {
		// Return propagation of the acknowledgment (reverse path is
		// uncongested, as in the paper's setup).
		port.ackLane.ScheduleArg(t+port.oneWay, n.ackApply, p)
		return
	}
	p.turnAround(n.ackBytes, t)
	l := port.rev[0]
	if !l.queue.Enqueue(p, t) {
		n.acksDropped++
		n.pool.put(p)
		return
	}
	l.Offer(t)
}

// onAckArrived delivers an acknowledgment to its sender, whichever way it
// came home: over pure delay or across the flow's reverse links.
//
//repo:hotpath per-ack delivery to the sender
func (n *Network) onAckArrived(t sim.Time, arg any) {
	p := arg.(*Packet)
	port := n.flows[p.Flow]
	if port == nil || port.gen != p.gen {
		n.pool.put(p) // stale ack of a detached flow or an earlier connection
		return
	}
	ack := p.ack
	n.pool.put(p)
	port.sender.OnAck(ack, t)
}

// reclaimInFlight takes back the argument of a canceled in-flight event: a
// packet between hops, on its way to the receiver or home with its ack.
func (n *Network) reclaimInFlight(arg any) {
	if p, ok := arg.(*Packet); ok {
		n.pool.put(p)
	}
}

// Reset returns the network to its just-built state for engine-pooled reuse
// (scenario.Session): links and queues stay, but every queued, in-service or
// in-flight packet — data or acknowledgment — is recycled, every flow slot is
// vacated and all counters are zeroed.
// Ports survive detached — the owner re-attaches them (ReattachFlowRoute)
// for the next run, which reuses their route capacity, allocates nothing and
// starts their receivers as new ones, so a run after Reset acknowledges what a
// run of a just-built network would.
// The attachment-generation counter keeps counting monotonically, so a
// pooled network can never confuse a recycled packet with a new attachment.
//
// Reset must run before the engine is reset: queue disciplines are drained
// through their Dequeue path (so CoDel's dequeue-time drop hooks recycle
// internally dropped packets), which wants a clock no earlier than the
// packets' enqueue stamps.
func (n *Network) Reset() {
	now := n.engine.Now()
	// Packets between hops ride engine events; cancel those and take the
	// arguments back, or the engine's reset would drop a bandwidth-delay
	// product of them for the next run to re-allocate.
	n.engine.CancelArgs(n.reclaimInFlight)
	for _, l := range n.links {
		if p := l.reset(); p != nil {
			n.pool.put(p)
		}
		q := l.queue
		for q.Len() > 0 {
			p := q.Dequeue(now)
			if p == nil {
				break
			}
			n.pool.put(p)
		}
		if r, ok := q.(interface{ Reset() }); ok {
			r.Reset()
		}
	}
	for _, p := range n.flows {
		if p == nil {
			continue
		}
		p.attached = false
		p.packetsSent = 0
		p.bytesSent = 0
		p.receiver.packetsReceived = 0
		p.receiver.bytesReceived = 0
	}
	n.pool.rewind()
	n.flows = n.flows[:0]
	n.freeSlots = n.freeSlots[:0]
	n.liveFlows = 0
	n.runGen = n.nextGen
	n.packetsOffered = 0
	n.packetsDropped = 0
	n.acksDropped = 0
}

// ReleaseDropped recycles a packet a queue discipline dropped internally
// (CoDel's dequeue-time drops); the session wires it as the drop hook.
// Dropped acknowledgments are counted so AcksDropped covers both enqueue-
// and dequeue-time losses on reverse links; data-packet dequeue drops stay
// visible only through the per-queue Drops counter, preserving the
// long-standing meaning of PacketsDropped (drops on arrival).
func (n *Network) ReleaseDropped(p *Packet) {
	if p.isAck {
		n.acksDropped++
	}
	n.pool.put(p)
}

// SetSender makes s the sender the port delivers acknowledgments to. A
// transport needs its port to exist before it does, so it is attached with a
// placeholder and bound here once built; the acknowledgment then reaches it
// directly rather than through a forwarding closure. s must not be nil.
func (p *Port) SetSender(s Sender) { p.sender = s }

// NewPacket returns a blank packet for this flow's sender to fill in and
// Send. Senders must obtain packets here rather than allocating them, so the
// network can recycle delivered packets.
func (p *Port) NewPacket() *Packet { return p.net.pool.get() }

// NewConnection stamps a fresh attachment generation on the port without
// changing its flow slot. Data packets and acknowledgments of the previous
// connection that are still in flight fail the generation check on delivery
// and are recycled, exactly as after a detach/reattach cycle. Transports
// call it when a new on period begins, so a short off period cannot leak the
// old connection's traffic — in particular a stale cumulative ack, which
// would corrupt the fresh sequence space — into the new one.
func (p *Port) NewConnection() {
	p.net.nextGen++
	p.gen = p.net.nextGen
}

// Send transmits a packet from this flow's sender into its first-hop queue.
// The packet's Flow field is overwritten with the port's flow id. It returns
// false if the first hop dropped the packet on arrival.
//
//repo:hotpath per-packet entry into the network
func (p *Port) Send(pkt *Packet, now sim.Time) bool {
	if !p.attached {
		// A detached flow's sender must not inject traffic; recycle silently
		// (transports are stopped before detachment, so this is a backstop).
		p.net.pool.put(pkt)
		return false
	}
	if pkt.Size <= 0 {
		pkt.Size = p.net.mtu
	}
	pkt.Flow = p.flow
	pkt.gen = p.gen
	pkt.hop = 0
	pkt.isAck = false
	pkt.EnqueuedAt = now
	p.packetsSent++
	p.bytesSent += int64(pkt.Size)
	p.net.packetsOffered++
	l := p.fwd[0]
	ok := l.queue.Enqueue(pkt, now)
	if !ok {
		p.net.packetsDropped++
		p.net.pool.put(pkt)
		return false
	}
	l.Offer(now)
	return true
}

// Flow returns the port's flow id (its current slot; it may change across
// detach/reattach cycles).
func (p *Port) Flow() int { return p.flow }

// Attached reports whether the port is currently attached to the network.
func (p *Port) Attached() bool { return p.attached }

// OneWayDelay returns the flow's access one-way propagation delay.
func (p *Port) OneWayDelay() sim.Time { return p.oneWay }

// Receiver returns the flow's receiver (for statistics and resets).
func (p *Port) Receiver() *Receiver { return &p.receiver }

// PacketsSent returns the number of packets this flow has offered.
func (p *Port) PacketsSent() int64 { return p.packetsSent }

// BytesSent returns the number of bytes this flow has offered.
func (p *Port) BytesSent() int64 { return p.bytesSent }
