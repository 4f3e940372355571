package aqm

import "repro/internal/sim"

// Reset support for engine-pooled reuse (scenario.Session). Each discipline's
// Reset returns it to its just-constructed state: configuration (capacity,
// targets, gains, hooks) is kept, all dynamic state and counters are cleared.
// Callers are expected to drain queued packets first (Network.Reset recycles
// them through its packet pool); Reset then discards whatever ring slots
// remain without further accounting.

// Reset returns the queue to its just-constructed state. Capacity and the
// ECN mark threshold are kept; occupancy and counters are cleared.
func (q *DropTail) Reset() {
	q.queue.Clear()
	q.bytes = 0
	q.drops = 0
	q.marks = 0
}

// Reset returns the queue to its just-constructed state. Capacity, target,
// interval and the drop hook are kept; the control-law state machine,
// occupancy and counters are cleared. maxPacket is also cleared — it is
// learned from traffic, and a pooled run may carry different packet sizes.
func (q *CoDel) Reset() {
	q.queue.Clear()
	q.bytes = 0
	q.drops = 0
	q.maxPacket = 0
	q.firstAboveTime = 0
	q.dropNext = 0
	q.dropCount = 0
	q.lastDropCount = 0
	q.dropping = false
}

// Reset returns the discipline to its just-constructed state: every bucket's
// CoDel state machine is reset and the deficit round-robin schedule cleared.
// Only the buckets a packet ever reached exist and carry state; they are kept,
// so a warm session's flows find their queues already built.
func (q *SfqCoDel) Reset() {
	for _, i := range q.created {
		q.buckets[i].Reset()
		q.deficits[i] = 0
		q.inActive[i] = false
	}
	q.active.Clear()
	q.length = 0
	q.bytes = 0
	q.drops = 0
}

// Reset returns the router to its just-constructed state. The control-tick
// event scheduled on the (now reset) engine never fires; clearing started
// lets Start re-arm the controller for the next run.
func (q *XCPQueue) Reset() {
	q.fifo.Reset()
	q.inputBytes = 0
	q.sumRTT = 0
	q.rttSamples = 0
	q.sumRttSizeCwnd = 0
	q.sumSize = 0
	q.minQueueBytes = 0
	q.xiPos = 0
	q.xiNeg = 0
	q.interval = 100 * sim.Millisecond
	q.started = false
}
