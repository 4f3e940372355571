package netsim

// Receiver is the per-flow receiving endpoint. It acknowledges every data
// packet immediately (the periodic ACK feedback the paper assumes) and
// tracks the cumulative acknowledgment so senders can run ordinary TCP loss
// recovery. The acknowledgment is written into the delivered packet itself,
// which then carries it home. The receiver requires no congestion-control
// changes, matching the paper's "no receiver changes are necessary".
type Receiver struct {
	flow   int
	cumAck int64
	// received holds out-of-order sequence numbers above cumAck in a bitmap
	// window ring (see recvWindow) — the per-packet receive path never
	// touches a hash table.
	received recvWindow

	packetsReceived int64
	bytesReceived   int64
}

// NewReceiver creates a receiver for the given flow id.
func NewReceiver(flow int) *Receiver {
	return &Receiver{flow: flow}
}

// Flow returns the receiver's flow id.
func (r *Receiver) Flow() int { return r.flow }

// CumAck returns the lowest sequence number not yet received.
func (r *Receiver) CumAck() int64 { return r.cumAck }

// PacketsReceived returns the number of data packets delivered to this
// receiver (including retransmissions and duplicates).
func (r *Receiver) PacketsReceived() int64 { return r.packetsReceived }

// BytesReceived returns the number of bytes delivered to this receiver.
func (r *Receiver) BytesReceived() int64 { return r.bytesReceived }

// Receive processes a delivered data packet and writes its acknowledgment in
// place, into the packet that carries it home, returning it. Every field is
// written, so nothing an earlier use of the packet left there survives.
//
//repo:hotpath per-packet acknowledgment
func (r *Receiver) Receive(p *Packet) *Ack {
	r.packetsReceived++
	r.bytesReceived += int64(p.Size)
	if p.Seq == r.cumAck && r.received.empty() {
		// In-order fast path: no out-of-order state to reconcile, so the
		// cumulative ack advances without touching the window at all.
		r.cumAck++
	} else if p.Seq >= r.cumAck && !r.received.has(p.Seq) {
		r.received.set(p.Seq)
		// Advance the cumulative ack over any now-contiguous prefix.
		r.cumAck = r.received.advanceFrom(r.cumAck)
	}
	// Field by field: a composite literal would be built on the stack and
	// copied, and the copy's wide reload of the narrow stores just made
	// stalls once per packet.
	a := &p.ack
	a.Flow = p.Flow
	a.Seq = p.Seq
	a.CumAck = r.cumAck
	a.SentAt = p.SentAt
	a.ECNEcho = p.ECNMarked
	if p.XCP != nil {
		a.HasXCP = true
		a.XCPFeedback = p.XCP.Feedback
	} else {
		a.HasXCP = false
		a.XCPFeedback = 0
	}
	return a
}

// Reset clears receiver state for a new connection (new "on" period). The
// paper's RemyCCs and TCP alike start each connection from scratch.
func (r *Receiver) Reset() {
	r.cumAck = 0
	r.received.clearAll()
}

// renew makes the receiver a new one for whatever flow registers it next.
func (r *Receiver) renew() {
	r.cumAck = 0
	r.received.renew()
	r.packetsReceived, r.bytesReceived = 0, 0
}
