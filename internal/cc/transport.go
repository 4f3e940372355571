package cc

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/netsim"
	"repro/internal/ring"
	"repro/internal/sim"
)

// Retransmission-timer parameters (RFC 6298 with the common 200 ms floor).
const (
	initialRTO = 1 * sim.Second
	minRTO     = 200 * sim.Millisecond
	maxRTO     = 60 * sim.Second
)

// Stats accumulates the per-flow counters the evaluation needs (§5.1
// metrics): bytes acknowledged, RTT samples, losses and retransmissions.
type Stats struct {
	PacketsSent     int64
	Retransmissions int64
	LossEvents      int64
	Timeouts        int64
	BytesAcked      int64
	AcksReceived    int64
	RTTSum          sim.Time
	RTTSamples      int64
	MinRTT          sim.Time
	MaxRTT          sim.Time
}

// MeanRTT returns the average of the RTT samples, or 0 with no samples.
func (s Stats) MeanRTT() sim.Time {
	if s.RTTSamples == 0 {
		return 0
	}
	return sim.Time(int64(s.RTTSum) / s.RTTSamples)
}

type sentRecord struct {
	sentAt        sim.Time
	retransmitted bool
	// queued marks packets already sitting in the retransmission queue so
	// they are not queued twice.
	queued bool
	// live marks slot occupancy inside seqWindow; it is managed by the
	// window, never by transport code.
	live bool
}

// resend is one entry of the transport's retransmission log: seq was re-sent
// at time at. The entry speaks for seq's record only while the record's
// sentAt still equals at; a later re-send appends its own entry.
type resend struct {
	seq int64
	at  sim.Time
}

// resendLogMinCap is the retransmission log's first capacity: enough that a
// cold session pays one allocation per transport that ever retransmits and
// leaves doubling to unusually deep recoveries.
const resendLogMinCap = 128

// Transport is the generic reliable sender: it decides *when* packets may be
// transmitted (window and pacing), performs loss detection and recovery, and
// defers all congestion decisions to its Algorithm. One Transport drives one
// flow through a netsim.Port.
type Transport struct {
	port *netsim.Port
	algo Algorithm
	// stamper is algo's PacketStamper side, resolved once; nil for the
	// algorithms that stamp nothing.
	stamper PacketStamper
	mss     int

	active bool

	// Sequence state. outstanding stores records by value in a dense
	// seq-indexed ring (see seqWindow): outstanding sequence numbers all lie
	// in the current send window, so indexing replaces hashing on the
	// per-packet hot path and iteration is naturally in sequence order.
	nextSeq     int64
	cumAck      int64
	outstanding seqWindow
	// retransmitQueue holds sequence numbers that must be resent before any
	// new data. It is a ring rather than a head-advanced slice so recovery
	// stays allocation-free in steady state (see internal/ring).
	retransmitQueue ring.Ring[int64]

	// Loss detection.
	dupAcks      int
	inRecovery   bool
	recoverUntil int64
	// highestAcked is the highest individual sequence number the receiver
	// has acknowledged; packets three or more below it that remain
	// outstanding are presumed lost (SACK-style loss detection).
	highestAcked int64
	// State of the presumed-lost scan (see queuePresumedLost), reset with the
	// window. Every never-retransmitted record below firstCursor is queued or
	// gone. resends[resendHead:] logs the retransmissions of this epoch in
	// send order; its buffer outlives Reset, as the window's and the
	// retransmission queue's do.
	firstCursor int64
	resends     []resend
	resendHead  int

	// RTT estimation (RFC 6298).
	srtt   sim.Time
	rttvar sim.Time
	rto    sim.Time
	hasRTT bool
	minRTT sim.Time
	// rtoTimer and paceTimer are reschedulable timers created once per
	// transport, so the constant rearm/cancel churn of the RTO and pacing
	// paths allocates nothing.
	rtoTimer *sim.Timer

	// Pacing.
	lastSend    sim.Time
	paceTimer   *sim.Timer
	pacePending bool

	stats Stats

	// OnBytesAcked, if set, is invoked whenever new bytes are cumulatively
	// acknowledged; the workload switcher uses it to end byte-counted "on"
	// periods.
	OnBytesAcked func(now sim.Time, bytes int64)
	// OnSend, if set, observes every transmitted packet (sequence plots).
	OnSend func(p *netsim.Packet, now sim.Time)
}

// NewTransport builds a transport running algo over the given port.
func NewTransport(engine *sim.Engine, port *netsim.Port, algo Algorithm, mss int) (*Transport, error) {
	if engine == nil || port == nil || algo == nil {
		return nil, fmt.Errorf("cc: NewTransport requires engine, port and algorithm")
	}
	t := &Transport{}
	t.rtoTimer = engine.NewTimer(t.onRTO)
	t.paceTimer = engine.NewTimer(t.onPace)
	if err := t.Rebind(port, algo, mss); err != nil {
		return nil, err
	}
	return t, nil
}

// Rebind makes t the transport NewTransport would build running algo over
// port, on the engine t was built on, out of t's own parts: its timers, its
// window ring (renewed: it regrows through a new window's sizes into the
// backing array it keeps, see seqWindow.renew), its retransmission queue and
// resend log, emptied; everything else — connection state, statistics,
// observers — starts afresh. A session builds its worlds' transports this way
// (see scenario.Session).
func (t *Transport) Rebind(port *netsim.Port, algo Algorithm, mss int) error {
	if port == nil || algo == nil {
		return fmt.Errorf("cc: Rebind requires port and algorithm")
	}
	if mss <= 0 {
		mss = netsim.MTU
	}
	t.rtoTimer.Stop()
	t.paceTimer.Stop()
	t.outstanding.renew()
	t.retransmitQueue.Clear()
	*t = Transport{
		port:            port,
		algo:            algo,
		mss:             mss,
		rto:             initialRTO,
		outstanding:     t.outstanding,
		retransmitQueue: t.retransmitQueue,
		resends:         t.resends[:0],
		rtoTimer:        t.rtoTimer,
		paceTimer:       t.paceTimer,
	}
	t.stamper, _ = algo.(PacketStamper)
	return nil
}

// onPace is the pacing timer's callback: the next paced packet may go.
//
//repo:hotpath per-packet pacing timer
func (t *Transport) onPace(fireAt sim.Time) {
	t.pacePending = false
	t.maybeSend(fireAt)
}

// Algorithm returns the congestion-control algorithm driving this transport.
func (t *Transport) Algorithm() Algorithm { return t.algo }

// Stats returns a copy of the accumulated counters.
func (t *Transport) Stats() Stats { return t.stats }

// ResetStats zeroes the accumulated counters. The churn runtime recycles
// transports across flow incarnations and reset the counters at each spawn
// so per-flow aggregates stay per-incarnation; long-lived static flows never
// call it (their counters deliberately span on periods).
func (t *Transport) ResetStats() { t.stats = Stats{} }

// Reset returns the transport to its just-constructed state for engine-pooled
// reuse (scenario.Session): wiring (port, algorithm, timers, observers) stays,
// all per-connection state and statistics are cleared. The algorithm itself is
// reset by the next StartFlow, exactly as on a fresh transport.
func (t *Transport) Reset() {
	t.active = false
	t.rtoTimer.Stop()
	t.paceTimer.Stop()
	t.nextSeq = 0
	t.cumAck = 0
	t.clearWindow()
	t.dupAcks = 0
	t.inRecovery = false
	t.recoverUntil = 0
	t.highestAcked = -1
	t.srtt = 0
	t.rttvar = 0
	t.rto = initialRTO
	t.hasRTT = false
	t.minRTT = 0
	t.lastSend = 0
	t.pacePending = false
	t.stats = Stats{}
}

// Active reports whether the flow currently has data to send.
func (t *Transport) Active() bool { return t.active }

// InFlight returns the number of outstanding (sent, unacknowledged) packets.
func (t *Transport) InFlight() int { return t.outstanding.Len() }

// MinRTT returns the minimum RTT observed on the current connection.
func (t *Transport) MinRTT() sim.Time { return t.minRTT }

// StartFlow begins a new connection ("on" period): sequence space, RTT
// estimators and the algorithm all reset, matching the paper's model of each
// on period starting like a fresh TCP connection in slow start.
func (t *Transport) StartFlow(now sim.Time) {
	t.active = true
	t.nextSeq = 0
	t.cumAck = 0
	t.clearWindow()
	t.dupAcks = 0
	t.inRecovery = false
	t.highestAcked = -1
	t.srtt = 0
	t.rttvar = 0
	t.rto = initialRTO
	t.hasRTT = false
	t.minRTT = 0
	t.lastSend = 0
	t.pacePending = false
	// Fence off the previous on period's in-flight traffic: without a fresh
	// generation, a stale cumulative ack arriving after a short off period
	// would leap the new connection's cumAck (and nextSeq with it) far past
	// sequence space the receiver will ever see, stalling the flow until the
	// run ends.
	t.port.NewConnection()
	t.port.Receiver().Reset()
	t.algo.Reset(now)
	t.maybeSend(now)
}

// StopFlow ends the current on period: timers are canceled and outstanding
// state is discarded.
func (t *Transport) StopFlow(now sim.Time) {
	t.active = false
	t.rtoTimer.Stop()
	t.paceTimer.Stop()
	t.pacePending = false
	t.clearWindow()
}

// clearWindow discards every outstanding record and, with them, what was
// derived from them: the retransmission queue and the presumed-lost scan's
// cursor and log. It is what ends a scan epoch (see queuePresumedLost).
func (t *Transport) clearWindow() {
	t.outstanding.clearAll()
	t.retransmitQueue.Clear()
	t.firstCursor = 0
	t.resends = t.resends[:0]
	t.resendHead = 0
}

// effectiveWindow clamps the algorithm's window to at least one packet.
func (t *Transport) effectiveWindow() float64 {
	w := t.algo.Window()
	if w < 1 {
		return 1
	}
	return w
}

// maybeSend transmits as many packets as the window and pacing allow.
//
//repo:hotpath per-ack/per-timer transmission gate
func (t *Transport) maybeSend(now sim.Time) {
	if !t.active {
		return
	}
	for {
		if float64(t.outstanding.Len()) >= t.effectiveWindow() {
			return
		}
		gap := t.algo.PacingGap()
		if gap > 0 && t.stats.PacketsSent > 0 {
			next := t.lastSend + gap
			if now < next {
				t.armPacer(now, next)
				return
			}
		}
		t.sendOne(now)
	}
}

func (t *Transport) armPacer(now, at sim.Time) {
	if t.pacePending {
		return
	}
	t.pacePending = true
	t.paceTimer.Schedule(at)
}

// sendOne transmits the next packet: a queued retransmission if any,
// otherwise new data.
//
//repo:hotpath per-packet transmission
func (t *Transport) sendOne(now sim.Time) {
	var seq int64
	retransmit := false
	// Pop retransmissions whose packets have since been acknowledged.
	for t.retransmitQueue.Len() > 0 {
		cand := t.retransmitQueue.Pop()
		if rec, ok := t.outstanding.get(cand); ok {
			rec.queued = false
			t.outstanding.put(cand, rec)
			seq = cand
			retransmit = true
			break
		}
	}
	if !retransmit {
		seq = t.nextSeq
		t.nextSeq++
	}
	p := t.port.NewPacket()
	p.Seq = seq
	p.Size = t.mss
	p.SentAt = now
	p.Retransmit = retransmit
	if t.stamper != nil {
		t.stamper.StampPacket(p, now)
	}
	// A record already there makes this a re-send, whichever branch above
	// chose seq (a queued retransmission always finds its record).
	rec, resent := t.outstanding.get(seq)
	rec.sentAt = now
	if resent {
		rec.retransmitted = true
		t.logResend(seq, now)
	}
	if retransmit {
		t.stats.Retransmissions++
	}
	t.outstanding.put(seq, rec)
	t.stats.PacketsSent++
	t.lastSend = now
	if t.OnSend != nil {
		t.OnSend(p, now)
	}
	t.port.Send(p, now)
	t.armRTO(now)
}

func (t *Transport) armRTO(now sim.Time) {
	t.rtoTimer.Schedule(now + t.rto)
}

func (t *Transport) onRTO(now sim.Time) {
	if !t.active || t.outstanding.Len() == 0 {
		return
	}
	t.stats.Timeouts++
	t.stats.LossEvents++
	t.algo.OnTimeout(now)
	// Go-back-N: everything beyond the cumulative ack is considered lost and
	// will be resent as new data. RTT sampling stays safe across the rewind
	// without Karn's rule because ACKs echo the delivered copy's own SentAt,
	// so every sample is per-transmission accurate.
	t.clearWindow()
	t.nextSeq = t.cumAck
	t.dupAcks = 0
	t.inRecovery = false
	// Exponential backoff.
	t.rto *= 2
	if t.rto > maxRTO {
		t.rto = maxRTO
	}
	t.maybeSend(now)
}

func (t *Transport) updateRTT(sample sim.Time) {
	if sample <= 0 {
		return
	}
	if t.minRTT == 0 || sample < t.minRTT {
		t.minRTT = sample
	}
	if sample > t.stats.MaxRTT {
		t.stats.MaxRTT = sample
	}
	if t.stats.MinRTT == 0 || sample < t.stats.MinRTT {
		t.stats.MinRTT = sample
	}
	t.stats.RTTSum += sample
	t.stats.RTTSamples++
	if !t.hasRTT {
		t.srtt = sample
		t.rttvar = sample / 2
		t.hasRTT = true
	} else {
		diff := t.srtt - sample
		if diff < 0 {
			diff = -diff
		}
		t.rttvar = (3*t.rttvar + diff) / 4
		t.srtt = (7*t.srtt + sample) / 8
	}
	rto := t.srtt + 4*t.rttvar
	if rto < minRTO {
		rto = minRTO
	}
	if rto > maxRTO {
		rto = maxRTO
	}
	t.rto = rto
}

// OnAck implements netsim.Sender.
//
//repo:hotpath per-ack congestion-control dispatch
func (t *Transport) OnAck(ack netsim.Ack, now sim.Time) {
	if !t.active {
		return
	}
	t.stats.AcksReceived++

	rec, wasOutstanding := t.outstanding.get(ack.Seq)
	var rttSample sim.Time
	if wasOutstanding && !rec.retransmitted {
		rttSample = now - ack.SentAt
		t.updateRTT(rttSample)
	}
	// The specific packet is no longer outstanding.
	t.outstanding.del(ack.Seq)
	if ack.Seq > t.highestAcked {
		t.highestAcked = ack.Seq
	}

	newly := 0
	if ack.CumAck > t.cumAck {
		newly = int(ack.CumAck - t.cumAck)
		for seq := t.cumAck; seq < ack.CumAck; seq++ {
			t.outstanding.del(seq)
		}
		t.cumAck = ack.CumAck
		if t.nextSeq < t.cumAck {
			// A go-back-N rewind moved nextSeq below data the receiver turns
			// out to have had all along (an outage queues packets rather than
			// dropping them, and drop-induced holes leave buffered data above
			// them): skip forward instead of resending acknowledged bytes.
			t.nextSeq = t.cumAck
		}
		t.outstanding.forgetBelow(t.cumAck)
		t.dupAcks = 0
		bytes := int64(newly) * int64(t.mss)
		t.stats.BytesAcked += bytes
		if t.OnBytesAcked != nil {
			t.OnBytesAcked(now, bytes)
		}
		if t.inRecovery {
			if t.cumAck >= t.recoverUntil {
				t.inRecovery = false
			} else if _, stillOut := t.outstanding.get(t.cumAck); stillOut {
				// Partial ACK: retransmit the next hole without signalling
				// another loss event, and refresh the presumed-lost set so a
				// burst of drops is repaired within about one round trip.
				t.queueRetransmit(t.cumAck)
				t.queuePresumedLost(now)
			}
		}
	} else {
		// Duplicate cumulative ACK while the hole is outstanding.
		if _, holeOutstanding := t.outstanding.get(t.cumAck); holeOutstanding {
			t.dupAcks++
			if t.dupAcks == 3 && !t.inRecovery {
				t.stats.LossEvents++
				t.inRecovery = true
				t.recoverUntil = t.nextSeq
				t.algo.OnLoss(now)
				t.queueRetransmit(t.cumAck)
				t.queuePresumedLost(now)
			}
		}
	}

	ev := AckEvent{
		Now:        now,
		RTT:        rttSample,
		MinRTT:     t.minRTT,
		SRTT:       t.srtt,
		NewlyAcked: newly,
		InFlight:   t.outstanding.Len(),
		ECNEcho:    ack.ECNEcho,
		MSS:        t.mss,
		Ack:        ack,
	}
	t.algo.OnAck(ev)

	if t.outstanding.Len() > 0 {
		t.armRTO(now)
	} else {
		t.rtoTimer.Stop()
	}
	t.maybeSend(now)
}

// testHookLossScan is nil outside tests. A test sets it to watch every
// presumed-lost scan: it is called before the scan has touched anything, and
// the function it returns is called once the scan has queued what it found.
var testHookLossScan func(t *Transport, now sim.Time) (done func())

// queuePresumedLost queues every outstanding packet that is presumed lost
// under a SACK-style rule: at least three higher sequence numbers have
// already been acknowledged, and the packet has not been (re)sent within the
// last smoothed RTT (to avoid retransmitting data that is merely still in
// flight). They are queued in ascending sequence order, which keeps
// retransmission order (and therefore whole simulations) deterministic across
// runs of the same seed.
//
// A record's age only matters once, so instead of walking the send window the
// scan visits records in the order they were sent — in which "has gone stale"
// is a prefix — and keeps two such orders:
//
//   - First transmissions are sent in sequence order, so among the
//     never-retransmitted records of one epoch sentAt ascends with seq.
//     firstCursor walks them upward once: dead, queued and retransmitted
//     slots are passed for good (the first two can only come back as
//     retransmissions), stale ones are queued, and the walk stops at the
//     first fresh one, since everything above it is fresher still. It also
//     stops at nextSeq: highestAcked survives a go-back-N rewind, so the
//     bound can lie above data not sent yet, which the cursor must not pass.
//   - Retransmissions are logged by sendOne as they are sent, so along
//     resends the time at ascends with position. takeStaleResends examines
//     only the stale prefix.
//
// The two selections are disjoint and together are exactly what an ascending
// walk from the window's floor to the bound would find; merging them by
// sequence number reproduces that walk's order. An epoch ends, and cursor and
// log restart, when the window is cleared: StartFlow, StopFlow, Reset and a
// retransmission timeout (clearWindow).
//
//repo:hotpath per-recovery-ack loss scan
func (t *Transport) queuePresumedLost(now sim.Time) {
	if testHookLossScan != nil {
		defer testHookLossScan(t, now)()
	}
	staleAfter := t.srtt
	if staleAfter <= 0 {
		staleAfter = t.rto
	}
	bound := t.highestAcked - 3
	if bound >= t.nextSeq {
		bound = t.nextSeq - 1
	}
	resent := t.takeStaleResends(now, staleAfter, bound)
	seq := max(t.firstCursor, t.outstanding.floor())
	for ; seq <= bound; seq++ {
		rec, ok := t.outstanding.get(seq)
		if !ok || rec.queued || rec.retransmitted {
			continue
		}
		if now-rec.sentAt < staleAfter {
			break
		}
		for len(resent) > 0 && resent[0].seq < seq {
			t.queueRetransmit(resent[0].seq)
			resent = resent[1:]
		}
		t.queueRetransmit(seq)
	}
	t.firstCursor = seq
	for _, e := range resent {
		t.queueRetransmit(e.seq)
	}
}

// takeStaleResends consumes the stale prefix of the retransmission log (the
// entries sent at least staleAfter before now) and returns, ascending by seq,
// the ones that are presumed lost again. An entry whose record is gone,
// queued or re-sent since (sentAt != at; the re-send has its own entry
// further on) is dropped, one at or below bound is returned, and one still
// above bound stays in the log, in order, for a later scan. The result lives
// in the part of the log the call has just freed and is valid until the next
// logResend.
//
//repo:hotpath per-recovery-ack loss scan
func (t *Transport) takeStaleResends(now, staleAfter sim.Time, bound int64) []resend {
	log, head := t.resends, t.resendHead
	stale := head
	for stale < len(log) && now-log[stale].at >= staleAfter {
		stale++
	}
	// Backwards, so the entries that stay can be swapped to the end of the
	// prefix, next to the fresh ones, without losing their order; what the
	// swaps scramble is sorted or dropped below.
	keep := stale
	for i := stale - 1; i >= head; i-- {
		e := log[i]
		rec, ok := t.outstanding.get(e.seq)
		switch {
		case !ok || rec.queued || rec.sentAt != e.at:
			log[i].seq = -1
		case e.seq <= bound:
		default:
			keep--
			log[i], log[keep] = log[keep], e
		}
	}
	t.resendHead = keep
	n := head
	for _, e := range log[head:keep] {
		if e.seq >= 0 {
			log[n] = e
			n++
		}
	}
	lost := log[head:n]
	slices.SortFunc(lost, resendBySeq)
	return lost
}

func resendBySeq(a, b resend) int { return cmp.Compare(a.seq, b.seq) }

// logResend appends a retransmission to the scan's log. The log is consumed
// from the front, so when full it reclaims a front that is more than half of
// it, and doubles otherwise.
//
//repo:hotpath per-retransmission
func (t *Transport) logResend(seq int64, now sim.Time) {
	if len(t.resends) == cap(t.resends) {
		live := t.resends[t.resendHead:]
		if t.resendHead*2 <= len(t.resends) {
			t.resends = make([]resend, len(live), max(2*cap(t.resends), resendLogMinCap))
		}
		t.resends = t.resends[:copy(t.resends[:cap(t.resends)], live)]
		t.resendHead = 0
	}
	//lint:ignore hotalloc room was made above; the log doubles only up to the deepest recovery seen and outlives Reset
	t.resends = append(t.resends, resend{seq: seq, at: now})
}

//repo:hotpath per-lost-packet queueing
func (t *Transport) queueRetransmit(seq int64) {
	rec, ok := t.outstanding.get(seq)
	if !ok || rec.queued {
		return
	}
	rec.queued = true
	t.outstanding.put(seq, rec)
	t.retransmitQueue.Push(seq)
}

// SRTT returns the smoothed RTT estimate.
func (t *Transport) SRTT() sim.Time { return t.srtt }

// RTO returns the current retransmission timeout.
func (t *Transport) RTO() sim.Time { return t.rto }
