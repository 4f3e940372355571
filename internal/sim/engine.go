package sim

import "fmt"

// EventID identifies a scheduled event so it can be canceled. The zero
// EventID is invalid. IDs are generation-counted: when an event's slot is
// reclaimed (after the event ran, or after a canceled entry is compacted
// away) the slot's generation advances, so a stale id held by the caller can
// never cancel the slot's next occupant.
type EventID struct {
	slot int32
	gen  uint32
}

// Valid reports whether the id refers to a scheduled (possibly already
// executed) event.
func (id EventID) Valid() bool { return id.gen != 0 }

// eventSlot is one value-typed entry in the engine's slab. Events compare by
// time, then by insertion sequence, so simultaneous events execute in the
// order they were scheduled — another ingredient of exact reproducibility.
type eventSlot struct {
	at  Time
	seq uint64
	// Exactly one of fn/argFn is set. argFn carries an explicit argument so
	// per-packet hot paths can schedule without allocating a fresh closure.
	fn    func(now Time)
	argFn func(now Time, arg any)
	arg   any
	// gen is the slot's current generation; it advances on every release so
	// stale EventIDs never touch a reused slot.
	gen uint32
	// heapPos is the slot's position in the heap, or -1 while the slot is
	// free. Tracking it makes pulling an event in an in-place heap move.
	heapPos int32
	// canceled events stay queued but are skipped when popped; this is
	// cheaper than removing them eagerly and keeps Cancel O(1). The engine
	// filters them out of the heap when they pile up.
	canceled bool
	// deferred means the event is wanted under the key (wantAt, wantSeq), not
	// the (at, seq) it is filed under: a push-back that Reschedule recorded
	// instead of carrying out. The slot moves to that key the next time the
	// engine has it in hand — when its filing reaches the root (see refile).
	deferred bool
	wantAt   Time
	wantSeq  uint64
}

// nextGen advances the slot's generation past every id handed out for it,
// skipping 0, which must stay the invalid id.
func (s *eventSlot) nextGen() {
	s.gen++
	if s.gen == 0 {
		s.gen = 1
	}
}

// heapEntry is one element of the heap: the event's ordering key copied out
// of its slot next to the slot index, so sifts and the merge with the lanes
// compare contiguous memory without chasing slots. The slot stays the source
// of truth for execution; whoever changes a queued slot's (at, seq) rewrites
// its entry in the same breath (refile, Reschedule's pull-in), so the two
// cannot disagree.
type heapEntry struct {
	at  Time
	seq uint64
	idx int32
}

func (a heapEntry) less(b heapEntry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// Engine is a discrete-event simulation engine: a clock plus an ordered
// queue of future callbacks. It is not safe for concurrent use; parallelism
// in this repository is achieved by running many independent engines (one
// per network specimen), never by sharing one.
//
// Events wait in one of two places. Event streams that are sorted by
// construction — constant-delay propagation, a link's one pending service
// event — wait in up to maxLanes FIFO lanes (see Lane); in a packet
// simulation that is nearly every event. Everything else — timers, mostly: a
// few dozen at a time — waits in a 4-ary min-heap by (at, seq) over a slab of
// value-typed slots with a free list. Every step runs the smaller by
// (at, seq) of the heap's root and the earliest lane head, so the fire order
// is that of one queue holding every event: a merge of sorted sequences under
// one total order. refEngine in reference_test.go is that one queue, with
// plain Cancel+Schedule semantics, and the differential tests and
// FuzzEngineVsReference hold this implementation to it, fire-for-fire.
//
// Invariants, whenever control is outside the engine (between calls, and
// inside event callbacks):
//   - heap is a 4-ary min-heap by (at, seq): no entry sorts before its parent
//     (i-1)>>2, so heap[0] is the earliest event outside the lanes;
//   - a queued slot's heap entry carries the slot's own (at, seq), deferred or
//     not, and the slot's heapPos is the entry's index; a deferred slot has
//     wantAt >= at and wantSeq > seq, so the filing it waits under always pops
//     before the key it is wanted at;
//   - no queued event is earlier than now;
//   - each lane's entries are sorted ascending by (at, seq) — an entry is
//     appended only at or after the lane's newest time, under a fresh sequence
//     number; heads[i] is lane i's head key (noHead when empty) and best/bestKey
//     name the smallest of them.
type Engine struct {
	now   Time
	slots []eventSlot
	free  []int32 // reclaimed slot indices (LIFO for cache locality)

	heap  []heapEntry
	stats engineStats

	// canceled counts canceled events still in the heap; when they outnumber
	// live ones the heap is compacted and their slots reclaimed.
	canceled int
	nextSeq  uint64
	stopped  bool
	// executed counts events run, which tests and benchmarks use to verify
	// workload sizes.
	executed uint64

	// inCallback is set while an event callback runs; Reset refuses to run
	// under one.
	inCallback bool

	// Lanes (lane.go). nLanes of them are handed out; handles carry laneEpoch,
	// which Reset advances. inLanes counts the entries across all lanes.
	lanes     [maxLanes]lane
	heads     [maxLanes]laneKey
	nLanes    int
	laneEpoch uint32
	best      int // lane with the smallest head key, -1 when every lane is empty
	bestKey   laneKey
	inLanes   int
}

// engineStats counts, over the engine's lifetime (Reset keeps them), the
// decisions the tests pin: which way a Reschedule or a lane push went.
type engineStats struct {
	// Reschedule to the same or a later time: push-backs recorded in the slot,
	// and filings that reached the root only to be moved to the recorded key.
	deferred, headVisits uint64
	// Lane pushes: appended to a lane, filed on the heap because they would
	// have broken the lane's order, and NewLane calls refused at the cap.
	laned, laneFallbacks, laneRefused uint64
}

// compactMin is how many canceled events must be queued before Cancel
// considers filtering them out of the heap.
const compactMin = 64

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine {
	e := &Engine{best: -1, bestKey: noHead}
	for i := range e.heads {
		e.heads[i] = noHead
	}
	return e
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Pending returns the number of events currently scheduled, on the heap
// (including canceled events not yet discarded) and in lanes.
func (e *Engine) Pending() int { return len(e.heap) + e.inLanes }

// Executed returns the number of events that have run.
func (e *Engine) Executed() uint64 { return e.executed }

// alloc returns a slot index off the free list, growing the slab if empty.
func (e *Engine) alloc() int32 {
	if n := len(e.free); n > 0 {
		idx := e.free[n-1]
		e.free = e.free[:n-1]
		return idx
	}
	e.slots = append(e.slots, eventSlot{gen: 1, heapPos: -1})
	return int32(len(e.slots) - 1)
}

// release reclaims a slot whose event has been taken off the heap: it
// advances the generation so outstanding EventIDs go stale, clears the slot's
// references and returns it to the free list.
func (e *Engine) release(idx int32) {
	s := &e.slots[idx]
	s.nextGen()
	s.fn = nil
	s.argFn = nil
	s.arg = nil
	s.canceled = false
	s.deferred = false
	s.heapPos = -1
	e.free = append(e.free, idx)
}

// place writes en at heap position pos and records the position in its slot.
// Every move in the heap goes through it.
func (e *Engine) place(pos int, en heapEntry) {
	e.heap[pos] = en
	e.slots[en.idx].heapPos = int32(pos)
}

// insert pushes an already-filled slot onto the heap.
//
//repo:hotpath per-timer placement
func (e *Engine) insert(idx int32) {
	s := &e.slots[idx]
	//lint:ignore hotalloc the heap keeps its capacity across Reset; append is amortized-free once warm
	e.heap = append(e.heap, heapEntry{})
	e.siftUp(len(e.heap)-1, heapEntry{at: s.at, seq: s.seq, idx: idx})
}

// siftUp settles en, which belongs at position i or above, by moving smaller
// parents down into the hole.
//
//repo:hotpath per-timer placement and pull-in
func (e *Engine) siftUp(i int, en heapEntry) {
	for i > 0 {
		parent := (i - 1) >> 2
		if !en.less(e.heap[parent]) {
			break
		}
		e.place(i, e.heap[parent])
		i = parent
	}
	e.place(i, en)
}

// siftDown settles en, which belongs at position i or below, by moving the
// smallest child up into the hole.
//
//repo:hotpath per pop and per head visit of a pushed-back timer
func (e *Engine) siftDown(i int, en heapEntry) {
	h := e.heap
	for {
		first := i<<2 + 1
		if first >= len(h) {
			break
		}
		least, end := first, min(first+4, len(h))
		for c := first + 1; c < end; c++ {
			if h[c].less(h[least]) {
				least = c
			}
		}
		if !h[least].less(en) {
			break
		}
		e.place(i, h[least])
		i = least
	}
	e.place(i, en)
}

// popRoot removes the heap's earliest entry.
//
//repo:hotpath per-event dispatch: queue pop
func (e *Engine) popRoot() {
	n := len(e.heap) - 1
	last := e.heap[n]
	e.heap = e.heap[:n]
	if n > 0 {
		e.siftDown(0, last)
	}
}

// compact filters the canceled entries out of the heap, reclaiming their
// slots, and restores the heap order and every slot's heapPos.
func (e *Engine) compact() {
	live := e.heap[:0]
	for _, en := range e.heap {
		if e.slots[en.idx].canceled {
			e.release(en.idx)
		} else {
			e.slots[en.idx].heapPos = int32(len(live))
			live = append(live, en)
		}
	}
	e.heap = live
	e.canceled = 0
	for i := (len(live) - 2) >> 2; i >= 0; i-- {
		e.siftDown(i, live[i])
	}
}

// Schedule registers fn to run at the absolute simulated time at. Scheduling
// in the past (before Now) is a programming error and panics, because it
// would silently corrupt causality in a simulation.
func (e *Engine) Schedule(at Time, fn func(now Time)) EventID {
	if fn == nil {
		panic("sim: Schedule called with nil callback")
	}
	return e.schedule(at, fn, nil, nil)
}

// ScheduleArg registers fn to run at the absolute simulated time at, passing
// it arg. It exists for per-packet hot paths: the callback can be a func
// value created once and reused, with the varying state carried in arg, so
// scheduling allocates nothing (arg itself should be a pointer — boxing a
// large value into the interface would allocate).
func (e *Engine) ScheduleArg(at Time, fn func(now Time, arg any), arg any) EventID {
	if fn == nil {
		panic("sim: ScheduleArg called with nil callback")
	}
	return e.schedule(at, nil, fn, arg)
}

// ScheduleAfter registers fn to run after the given delay from now.
func (e *Engine) ScheduleAfter(delay Time, fn func(now Time)) EventID {
	if delay < 0 {
		delay = 0
	}
	return e.Schedule(e.now+delay, fn)
}

//repo:hotpath every event scheduled outside a lane passes through here
func (e *Engine) schedule(at Time, fn func(Time), argFn func(Time, any), arg any) EventID {
	if at < e.now {
		//lint:ignore hotalloc panic-path formatting; a causality violation aborts the run
		panic(fmt.Sprintf("sim: Schedule in the past: at=%v now=%v", at, e.now))
	}
	idx := e.alloc()
	s := &e.slots[idx]
	e.stamp(s, at, fn, argFn, arg)
	gen := s.gen
	e.insert(idx)
	return EventID{slot: idx, gen: gen}
}

// stamp fills a slot with a new occurrence, consuming one sequence number.
func (e *Engine) stamp(s *eventSlot, at Time, fn func(Time), argFn func(Time, any), arg any) {
	s.at, s.seq = at, e.nextSeq
	s.fn, s.argFn, s.arg = fn, argFn, arg
	e.nextSeq++
}

// Reschedule moves a recurring event to a new time: it atomically cancels
// the old occurrence (a no-op when id is stale or already canceled) and
// schedules fn at the new time, returning the new id. It is observably
// identical to Cancel+Schedule — one sequence number is consumed either way
// — but a live event keeps its slot and its one heap entry: no canceled entry
// is left behind and Pending does not move.
//
// A push-back (at no earlier than where the event is filed — the RTO, pushed
// out on every send and every ACK and fired a handful of times per run) moves
// nothing at all: the new time, the sequence number and fn are recorded in
// the slot, and the event stays filed where it is. When that filing reaches
// the root, the engine moves the slot to the recorded key instead of running
// it, without advancing the clock or Executed. The recorded key (at, seq) is
// the very key an immediate move would have filed it under, and nothing
// before it in (at, seq) order can be missed, because the stale filing is
// never later than it; so the fire order is the immediate move's. However
// many push-backs land between two root visits, they cost one move.
//
// A pull-in (at earlier than the filing — the pacing timer, a few packets
// ahead) cannot wait and is carried out on the spot: the slot's heap entry is
// rewritten where it sits and sifted up.
func (e *Engine) Reschedule(id EventID, at Time, fn func(now Time)) EventID {
	if fn == nil {
		panic("sim: Reschedule called with nil callback")
	}
	if at < e.now {
		//lint:ignore hotalloc panic-path formatting; a causality violation aborts the run
		panic(fmt.Sprintf("sim: Schedule in the past: at=%v now=%v", at, e.now))
	}
	if id.gen != 0 && int(id.slot) < len(e.slots) {
		s := &e.slots[id.slot]
		if s.gen == id.gen && !s.canceled {
			if at >= s.at {
				e.pushBack(s, at, fn)
			} else {
				e.stamp(s, at, fn, nil, nil)
				s.deferred = false
				s.nextGen()
				e.siftUp(int(s.heapPos), heapEntry{at: s.at, seq: s.seq, idx: id.slot})
			}
			return EventID{slot: id.slot, gen: s.gen}
		}
	}
	return e.schedule(at, fn, nil, nil)
}

// pushBack records in a live slot that its event now belongs at time at, not
// before where it is filed, under a sequence number consumed here, and makes
// ids handed out for the old occurrence stale. The heap is not touched.
//
//repo:hotpath per-send and per-ACK RTO push-back
func (e *Engine) pushBack(s *eventSlot, at Time, fn func(Time)) {
	s.wantAt, s.wantSeq, s.deferred = at, e.nextSeq, true
	e.nextSeq++
	s.fn, s.argFn, s.arg = fn, nil, nil
	s.nextGen()
	e.stats.deferred++
}

// refile moves the slot at the heap's root to the key recorded in it: the
// root's entry is rewritten and sifted down in place.
//
//repo:hotpath once per root visit of a pushed-back timer
func (e *Engine) refile(idx int32) {
	s := &e.slots[idx]
	s.at, s.seq, s.deferred = s.wantAt, s.wantSeq, false
	e.siftDown(0, heapEntry{at: s.at, seq: s.seq, idx: idx})
}

// Cancel prevents a previously scheduled event from running. Canceling an
// event that already ran, or an invalid id, is a no-op. Cancel is O(1): the
// entry stays in the heap and is skipped when popped, and piles of canceled
// entries are compacted away wholesale.
func (e *Engine) Cancel(id EventID) {
	if id.gen == 0 || int(id.slot) >= len(e.slots) {
		return
	}
	s := &e.slots[id.slot]
	if s.gen != id.gen || s.canceled {
		return
	}
	s.canceled = true
	e.canceled++
	if e.canceled >= compactMin && e.canceled*2 >= len(e.heap) {
		e.compact()
	}
}

// CancelArgs cancels every pending ScheduleArg event and hands each one's
// argument to reclaim, in no particular order. It exists for the owner of
// pooled event arguments — netsim's packets in flight, carrying data out or an
// acknowledgment home — to take them back before a reset; Reset alone would
// drop them with their slots, and every warm run would re-allocate a
// bandwidth-delay product of them. All ScheduleArg events are canceled, whoever scheduled them, so an
// engine's arguments must have one owner. Lane events are among them: their
// arguments are reclaimed too and the entries dropped at once (the lanes stay).
func (e *Engine) CancelArgs(reclaim func(arg any)) {
	e.emptyLanes(reclaim)
	for _, en := range e.heap {
		s := &e.slots[en.idx]
		if s.argFn == nil || s.canceled {
			continue
		}
		reclaim(s.arg)
		s.arg = nil
		s.canceled = true
		e.canceled++
	}
}

// Stop makes Run return after the currently executing event completes.
func (e *Engine) Stop() { e.stopped = true }

// Reset discards all pending events (outstanding EventIDs and Timers go
// stale, never firing), rewinds the clock to zero and zeroes the counters,
// while keeping the slot slab, free list, heap and lane-ring capacity for
// reuse. A pooled engine Reset between runs schedules with zero allocation
// from the first event on. Every lane is dropped with its entries and Lane
// handles go stale: who rides which lane is the next run's to decide, and a
// stale handle files on the heap, so a forgotten one costs speed only.
func (e *Engine) Reset() {
	if e.inCallback {
		panic("sim: Reset called from inside an event callback")
	}
	for _, en := range e.heap {
		e.release(en.idx)
	}
	e.heap = e.heap[:0]
	e.emptyLanes(nil)
	e.nLanes = 0
	e.laneEpoch++
	e.canceled = 0
	e.now = 0
	e.stopped = false
	e.executed = 0
	e.nextSeq = 0
}

// execFirst takes the heap's root and runs it, reporting whether a live event
// executed: a canceled one is discarded, and a pushed-back one is only moved
// to where it is wanted. The slot is released before the callback runs — the
// event's own id is already stale inside the callback, and the free list,
// being LIFO, hands the callback's first Schedule this still-hot slot.
//
//repo:hotpath per-event dispatch of a heap event
func (e *Engine) execFirst() bool {
	idx := e.heap[0].idx
	s := &e.slots[idx]
	if s.canceled {
		e.popRoot()
		e.canceled--
		e.release(idx)
		return false
	}
	if s.deferred {
		e.stats.headVisits++
		e.refile(idx)
		return false
	}
	e.popRoot()
	at := s.at
	fn, argFn, arg := s.fn, s.argFn, s.arg
	e.release(idx)
	e.now = at
	e.executed++
	e.inCallback = true
	if fn != nil {
		fn(at)
	} else {
		argFn(at, arg)
	}
	e.inCallback = false
	return true
}

// stepped is what one step of the engine did.
type stepped uint8

const (
	stepIdle    stepped = iota // nothing is due by the horizon
	stepSkipped                // a canceled entry was discarded or a pushed-back one moved
	stepRan                    // an event ran
)

// step runs the earliest pending event due by until: the heap's root or the
// best lane head, whichever is smaller by (at, seq). Both keys are inline — in
// the root's entry and in bestKey — so no slot is loaded unless the heap's
// event is the one to run.
//
//repo:hotpath per-event dispatch: the merge of the heap and the lanes
func (e *Engine) step(until Time) stepped {
	lk := e.bestKey
	if len(e.heap) > 0 {
		if en := &e.heap[0]; (laneKey{at: en.at, seq: en.seq}).less(lk) {
			switch {
			case en.at > until:
				return stepIdle
			case e.execFirst():
				return stepRan
			}
			return stepSkipped
		}
	}
	if e.best < 0 || lk.at > until {
		return stepIdle
	}
	e.execLane()
	return stepRan
}

// Run executes events in (time, sequence) order, heap and lane events alike,
// until none is left or the next one lies beyond the `until` horizon, and
// leaves the clock at until; events scheduled after `until` remain queued.
// A Run ended by Stop leaves the clock at the event that stopped it: earlier
// events may still be pending, and the next Run must not find the clock ahead
// of them.
func (e *Engine) Run(until Time) {
	e.stopped = false
	for !e.stopped {
		if e.step(until) == stepIdle {
			if e.now < until {
				e.now = until
			}
			return
		}
	}
}

// Step executes the single next event, heap or lane, if any, and reports
// whether one ran.
func (e *Engine) Step() bool {
	for {
		switch e.step(MaxTime) {
		case stepIdle:
			return false
		case stepRan:
			return true
		}
	}
}
