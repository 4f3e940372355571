package aqm

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// XCP efficiency-controller gains from Katabi, Handley and Rohrs (SIGCOMM
// 2002); these values guarantee stability independent of capacity and delay.
const (
	xcpAlpha = 0.4
	xcpBeta  = 0.226
	// xcpGamma is the fraction of traffic shuffled between flows each
	// control interval to ensure convergence to fairness.
	xcpGamma = 0.1
)

// XCPQueue is the XCP bottleneck router: a FIFO tail-drop queue that runs
// the XCP efficiency and fairness controllers and writes per-packet window
// feedback (in bytes) into each departing packet's congestion header.
//
// The paper notes that XCP "needs to know the bandwidth of the outgoing
// link"; for trace-driven cellular links the experiments supply the
// long-term average rate, exactly as §5.3 footnote 6 describes.
type XCPQueue struct {
	fifo   *DropTail
	engine *sim.Engine
	// capacityBps is the outgoing link capacity in bits per second.
	capacityBps float64

	// Control-interval accumulators (current interval).
	inputBytes     float64
	sumRTT         sim.Time
	rttSamples     int64
	sumRttSizeCwnd float64 // Σ rtt_i * s_i / cwnd_i   (seconds·dimensionless)
	sumSize        float64 // Σ s_i                    (bytes)
	minQueueBytes  int

	// Scales computed at the end of the previous interval and applied to
	// packets departing during the current one.
	xiPos float64 // positive feedback scale
	xiNeg float64 // negative feedback scale

	interval sim.Time
	started  bool
	// tick is controlTick bound once, so rescheduling it allocates nothing.
	tick func(now sim.Time)
}

// NewXCPQueue builds an XCP router queue with the given packet capacity
// feeding a link of capacityBps bits per second. The engine is used to run
// the periodic control interval.
func NewXCPQueue(engine *sim.Engine, capacity int, capacityBps float64) (*XCPQueue, error) {
	if engine == nil {
		return nil, fmt.Errorf("aqm: XCPQueue requires an engine")
	}
	if capacityBps <= 0 {
		return nil, fmt.Errorf("aqm: XCPQueue requires a positive link capacity")
	}
	fifo, err := NewDropTail(capacity)
	if err != nil {
		return nil, err
	}
	q := &XCPQueue{
		fifo:        fifo,
		engine:      engine,
		capacityBps: capacityBps,
		interval:    100 * sim.Millisecond, // refined to the mean RTT as samples arrive
	}
	q.tick = q.controlTick
	return q, nil
}

// Start begins the periodic control-interval computation.
func (q *XCPQueue) Start(now sim.Time) {
	if q.started {
		return
	}
	q.started = true
	q.minQueueBytes = q.fifo.Bytes()
	q.engine.Schedule(now+q.interval, q.tick)
}

// controlTick closes one control interval: it computes the feedback scales
// for the next and reschedules itself.
//
//repo:hotpath once per control interval for the whole run
func (q *XCPQueue) controlTick(now sim.Time) {
	d := q.interval.Seconds()
	capBytesPerSec := q.capacityBps / 8

	inputRate := q.inputBytes / d
	spare := capBytesPerSec - inputRate
	persistentQueue := float64(q.minQueueBytes)

	// Aggregate feedback for the next interval (bytes).
	phi := xcpAlpha*d*spare - xcpBeta*persistentQueue

	// Shuffled traffic forces continuous reallocation between flows even
	// when the aggregate feedback is zero.
	shuffle := xcpGamma * q.inputBytes
	if abs := phi; abs < 0 {
		abs = -abs
		if shuffle > abs {
			shuffle -= abs
		} else {
			shuffle = 0
		}
	} else if shuffle > abs {
		shuffle -= abs
	} else {
		shuffle = 0
	}

	pos := shuffle
	neg := shuffle
	if phi > 0 {
		pos += phi
	} else {
		neg += -phi
	}

	if q.sumRttSizeCwnd > 1e-12 {
		q.xiPos = pos / (d * q.sumRttSizeCwnd)
	} else {
		q.xiPos = 0
	}
	if q.sumSize > 1e-12 {
		q.xiNeg = neg / (d * q.sumSize)
	} else {
		q.xiNeg = 0
	}

	// Update the control interval to track the mean RTT of the traffic.
	if q.rttSamples > 0 {
		mean := sim.Time(int64(q.sumRTT) / q.rttSamples)
		if mean > 10*sim.Millisecond {
			q.interval = mean
		} else {
			q.interval = 10 * sim.Millisecond
		}
	}

	// Reset accumulators for the next interval.
	q.inputBytes = 0
	q.sumRTT = 0
	q.rttSamples = 0
	q.sumRttSizeCwnd = 0
	q.sumSize = 0
	q.minQueueBytes = q.fifo.Bytes()

	q.engine.Schedule(now+q.interval, q.tick)
}

// Enqueue implements netsim.Queue and accumulates the per-interval state the
// efficiency and fairness controllers need.
//
//repo:hotpath per-packet admission + header feedback
func (q *XCPQueue) Enqueue(p *netsim.Packet, now sim.Time) bool {
	ok := q.fifo.Enqueue(p, now)
	if !ok {
		return false
	}
	q.inputBytes += float64(p.Size)
	if p.XCP != nil {
		rttSec := p.XCP.RTT.Seconds()
		if rttSec > 0 && p.XCP.CwndBytes > 0 {
			q.sumRTT += p.XCP.RTT
			q.rttSamples++
			q.sumRttSizeCwnd += rttSec * float64(p.Size) / p.XCP.CwndBytes
			q.sumSize += float64(p.Size)
		}
	}
	if q.fifo.Bytes() < q.minQueueBytes {
		q.minQueueBytes = q.fifo.Bytes()
	}
	return true
}

// Dequeue implements netsim.Queue, writing the allocated feedback into the
// departing packet's XCP header.
//
//repo:hotpath per-packet service
func (q *XCPQueue) Dequeue(now sim.Time) *netsim.Packet {
	p := q.fifo.Dequeue(now)
	if p == nil {
		return nil
	}
	if q.fifo.Bytes() < q.minQueueBytes {
		q.minQueueBytes = q.fifo.Bytes()
	}
	if p.XCP != nil {
		rttSec := p.XCP.RTT.Seconds()
		size := float64(p.Size)
		var feedback float64
		if rttSec > 0 && p.XCP.CwndBytes > 0 {
			positive := q.xiPos * rttSec * rttSec * size / p.XCP.CwndBytes
			negative := q.xiNeg * rttSec * size
			feedback = positive - negative
		}
		// Routers only ever reduce the feedback a packet already carries
		// (the bottleneck governs); here there is a single router, so the
		// allocated value is written directly.
		p.XCP.Feedback = feedback
	}
	return p
}

// Len implements netsim.Queue.
func (q *XCPQueue) Len() int { return q.fifo.Len() }

// Bytes implements netsim.Queue.
func (q *XCPQueue) Bytes() int { return q.fifo.Bytes() }

// Drops implements netsim.Queue.
func (q *XCPQueue) Drops() int64 { return q.fifo.Drops() }
