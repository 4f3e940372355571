package netsim

import (
	"fmt"

	"repro/internal/sim"
)

// Link models the bottleneck: it drains a Queue and hands packets to a
// delivery callback. Its service event rides an engine lane of its own (see
// sim.Lane), taken the first time the link has something to schedule on an
// engine that has been reset since. Two service models are supported, matching
// the paper's two topologies:
//
//   - Fixed-rate: the link transmits back-to-back packets at RateBps
//     (the dumbbell and datacenter experiments).
//   - Trace-driven: the link delivers at most one MTU-sized packet at each
//     delivery opportunity of a cellular trace (the Verizon/AT&T LTE
//     experiments); opportunities with an empty queue are wasted, exactly as
//     in the paper's "packets are released at the same instants seen in the
//     trace" setup.
type Link struct {
	engine *sim.Engine
	queue  Queue

	// name identifies the link within a Network's topology; delay is its
	// one-way propagation delay, applied by the network after service. Both
	// are set by Network.AddLink (zero for directly constructed links).
	name  string
	delay sim.Time

	// fixed-rate service; memoSize/memoTime remember the service time of the
	// last packet size served (memoTime 0: none yet), so a stream of
	// equal-sized packets computes it once.
	rateBps  float64
	memoSize int
	memoTime sim.Time
	busy     bool
	// serving/servingTime carry the packet currently in transmission between
	// serveNext and serviceDone, so the service event needs no per-packet
	// closure.
	serving     *Packet
	servingTime sim.Time
	serviceDone func(now sim.Time, _ any)

	// svcLane is the engine lane the link's one pending service event (the
	// service completion, or a trace link's next opportunity) waits in: with at
	// most one entry it is always in order. hopLane, set by the Network, takes
	// packets leaving this link for the next hop of their route, a constant
	// delay away.
	svcLane sim.Lane
	hopLane sim.Lane

	// trace-driven service
	trace       []sim.Time // delivery opportunity times, strictly increasing
	traceLoop   bool
	traceIdx    int
	traceOff    sim.Time // offset added when the trace wraps around
	opportunity func(now sim.Time, _ any)

	deliver func(p *Packet, now sim.Time)

	// faults, when non-nil, injects outages, rate droops, burst loss and
	// delay spikes (see faults.go); resumeEv/resumeArmed drive the one
	// service-resume event a fixed-rate link arms per outage.
	faults       FaultInjector
	resumeEv     func(now sim.Time)
	resumeArmed  bool
	faultDropped int64

	delivered      int64
	deliveredBytes int64
	busyTime       sim.Time
	lastStart      sim.Time
}

// NewFixedRateLink builds a link serving queue at rateBps bits per second.
// Delivered packets are passed to deliver.
func NewFixedRateLink(engine *sim.Engine, queue Queue, rateBps float64, deliver func(*Packet, sim.Time)) (*Link, error) {
	if err := checkFixedRate(engine, queue, rateBps, deliver); err != nil {
		return nil, err
	}
	l := new(Link)
	l.configure(engine, queue, rateBps, nil, false, deliver)
	return l, nil
}

// NewTraceLink builds a trace-driven link: at each opportunity time in trace
// the link delivers one queued packet (if any). If loop is true the trace
// repeats indefinitely, shifted by its final timestamp.
func NewTraceLink(engine *sim.Engine, queue Queue, trace []sim.Time, loop bool, deliver func(*Packet, sim.Time)) (*Link, error) {
	if err := checkTrace(engine, queue, trace, deliver); err != nil {
		return nil, err
	}
	l := new(Link)
	l.configure(engine, queue, 0, trace, loop, deliver)
	return l, nil
}

func checkFixedRate(engine *sim.Engine, queue Queue, rateBps float64, deliver func(*Packet, sim.Time)) error {
	if engine == nil || queue == nil || deliver == nil {
		return fmt.Errorf("netsim: NewFixedRateLink requires engine, queue and deliver")
	}
	if rateBps <= 0 {
		return fmt.Errorf("netsim: link rate must be positive, got %g", rateBps)
	}
	return nil
}

func checkTrace(engine *sim.Engine, queue Queue, trace []sim.Time, deliver func(*Packet, sim.Time)) error {
	if engine == nil || queue == nil || deliver == nil {
		return fmt.Errorf("netsim: NewTraceLink requires engine, queue and deliver")
	}
	if len(trace) == 0 {
		return fmt.Errorf("netsim: empty delivery trace")
	}
	for i := 1; i < len(trace); i++ {
		if trace[i] < trace[i-1] {
			return fmt.Errorf("netsim: delivery trace not sorted at index %d", i)
		}
	}
	return nil
}

// configure makes l the just-constructed link of the given service model (a
// trace makes it trace-driven, otherwise it serves at rateBps). Every field is
// set afresh; only the callbacks bound to l itself are kept, so a link the
// Network recycles (see Network.Rebuild) is indistinguishable from a new one
// and costs no allocation.
func (l *Link) configure(engine *sim.Engine, queue Queue, rateBps float64, trace []sim.Time, loop bool, deliver func(*Packet, sim.Time)) {
	*l = Link{engine: engine, queue: queue, deliver: deliver,
		serviceDone: l.serviceDone, opportunity: l.opportunity, resumeEv: l.resumeEv}
	if len(trace) > 0 {
		l.trace, l.traceLoop = trace, loop
		if l.opportunity == nil {
			l.opportunity = l.onOpportunity
		}
		return
	}
	l.rateBps = rateBps
	if l.serviceDone == nil {
		l.serviceDone = l.onServiceDone
	}
}

// Start arms the link. Fixed-rate links are demand-driven and need no
// arming, but trace-driven links must schedule their first delivery
// opportunity. Start is idempotent for fixed-rate links.
func (l *Link) Start(now sim.Time) {
	if l.trace != nil {
		l.scheduleNextOpportunity(now)
	}
}

// reset returns the link to its just-constructed state for engine-pooled
// reuse, handing back the packet that was mid-transmission (if any) so the
// caller can recycle it. Any pending service event belongs to the engine
// being reset alongside and simply never fires.
func (l *Link) reset() *Packet {
	p := l.serving
	l.serving = nil
	l.busy = false
	l.servingTime = 0
	l.traceIdx = 0
	l.traceOff = 0
	l.delivered = 0
	l.deliveredBytes = 0
	l.busyTime = 0
	l.lastStart = 0
	l.resumeArmed = false
	l.faultDropped = 0
	return p
}

// Transmission time of a packet on a fixed-rate link.
//
//repo:hotpath per-packet service start
func (l *Link) serviceTime(p *Packet) sim.Time {
	if p.Size == l.memoSize && l.memoTime != 0 {
		return l.memoTime
	}
	seconds := float64(p.Size) * 8 / l.rateBps
	st := sim.FromSeconds(seconds)
	if st < 1 {
		st = 1 // quantize to at least one microsecond
	}
	l.memoSize, l.memoTime = p.Size, st
	return st
}

// RateBps returns the configured rate for fixed-rate links (0 for
// trace-driven links).
func (l *Link) RateBps() float64 { return l.rateBps }

// Name returns the link's name within its network topology ("" for links
// constructed outside a Network).
func (l *Link) Name() string { return l.name }

// Delay returns the link's one-way propagation delay.
func (l *Link) Delay() sim.Time { return l.delay }

// Queue returns the queue discipline the link serves.
func (l *Link) Queue() Queue { return l.queue }

// Delivered returns the number of packets the link has delivered.
func (l *Link) Delivered() int64 { return l.delivered }

// DeliveredBytes returns the number of bytes the link has delivered.
func (l *Link) DeliveredBytes() int64 { return l.deliveredBytes }

// Utilization returns the fraction of time the fixed-rate link spent
// transmitting, measured up to horizon.
func (l *Link) Utilization(horizon sim.Time) float64 {
	if horizon <= 0 {
		return 0
	}
	return float64(l.busyTime) / float64(horizon)
}

// Offer notifies the link that a packet was enqueued. Fixed-rate links start
// serving if idle; trace-driven links ignore it (their schedule is fixed).
//
//repo:hotpath called on every enqueue
func (l *Link) Offer(now sim.Time) {
	if l.trace != nil || l.busy {
		return
	}
	l.serveNext(now)
}

//repo:hotpath per-packet service start
func (l *Link) serveNext(now sim.Time) {
	if l.faults != nil {
		if down, until := l.faults.Outage(now); down {
			l.busy = false
			l.armResume(until)
			return
		}
	}
	p := l.queue.Dequeue(now)
	if p == nil {
		l.busy = false
		return
	}
	l.busy = true
	l.lastStart = now
	l.serving = p
	l.servingTime = l.serviceTime(p)
	if l.faults != nil {
		l.servingTime = l.faultServiceTime(p, now)
	}
	l.service().ScheduleArg(now+l.servingTime, l.serviceDone, nil)
}

// service returns the link's service lane, taking a new one from the engine
// when the link has none yet or the engine was reset since — so a link built
// without a Network gets one too. A fixed-rate link asks where a busy period
// begins, not per packet: while its service event is pending or running the
// engine has not been reset, so the handle is good.
func (l *Link) service() sim.Lane {
	if !l.svcLane.Live() {
		l.svcLane = l.engine.NewLane()
	}
	return l.svcLane
}

// onServiceDone completes the transmission of the packet in service and
// starts the next one (fixed-rate links only). Back-to-back transmissions at
// a saturated bottleneck are the hottest event pattern in the simulator: the
// link's one service event goes through its lane, a ring of one entry, and
// never touches the engine's heap.
//
//repo:hotpath per-packet service completion
func (l *Link) onServiceDone(t sim.Time, _ any) {
	p := l.serving
	l.serving = nil
	l.busyTime += l.servingTime
	l.delivered++
	l.deliveredBytes += int64(p.Size)
	l.deliver(p, t)
	if l.faults != nil {
		if down, until := l.faults.Outage(t); down {
			l.busy = false
			l.armResume(until)
			return
		}
	}
	next := l.queue.Dequeue(t)
	if next == nil {
		l.busy = false
		return
	}
	l.lastStart = t
	l.serving = next
	l.servingTime = l.serviceTime(next)
	if l.faults != nil {
		l.servingTime = l.faultServiceTime(next, t)
	}
	l.svcLane.ScheduleArg(t+l.servingTime, l.serviceDone, nil)
}

func (l *Link) scheduleNextOpportunity(now sim.Time) {
	for {
		if l.traceIdx >= len(l.trace) {
			if !l.traceLoop {
				return
			}
			// Wrap: shift subsequent opportunities by the final timestamp so
			// the inter-opportunity gaps repeat.
			l.traceOff += l.trace[len(l.trace)-1]
			l.traceIdx = 0
		}
		at := l.trace[l.traceIdx] + l.traceOff
		l.traceIdx++
		if at < now {
			continue // skip opportunities already in the past
		}
		l.service().ScheduleArg(at, l.opportunity, nil)
		return
	}
}

// onOpportunity serves one delivery opportunity of a trace-driven link; an
// empty queue wastes the opportunity, exactly as in the paper's setup. The
// opportunity event schedules its successor, the next trace instant, through
// the link's lane.
//
//repo:hotpath per-opportunity trace-link service
func (l *Link) onOpportunity(t sim.Time, _ any) {
	if l.faults != nil {
		if down, _ := l.faults.Outage(t); down {
			// The link is down: the opportunity is wasted even with a
			// non-empty queue.
			l.scheduleNextOpportunity(t)
			return
		}
	}
	if p := l.queue.Dequeue(t); p != nil {
		l.delivered++
		l.deliveredBytes += int64(p.Size)
		l.deliver(p, t)
	}
	l.scheduleNextOpportunity(t)
}
