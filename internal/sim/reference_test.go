package sim

import (
	"fmt"
)

// refEngine is the original 4-ary slab-heap event engine, kept verbatim as
// the reference implementation for differential testing of the production
// Engine. It is intentionally simple: one binary heap of slot
// indices ordered by (time, sequence), lazy cancellation, periodic
// compaction. The differential harness (engine_diff_test.go and
// FuzzEngineVsReference) drives refEngine and Engine through identical op
// traces and asserts identical fire order, clocks and counters, so any
// Engine bug that changes observable behavior is caught against
// this model rather than against golden fixtures three layers up.
//
// refEngine must match Engine observably: same (at, seq) fire order, same
// panics, same Pending/Executed/Now accounting. Slot indices, free-list
// order and generation values are NOT part of the observable contract.
type refEngine struct {
	now      Time
	slots    []eventSlot
	free     []int32
	heap     []int32 // 4-ary min-heap of slot indices, ordered by (at, seq)
	canceled int
	nextSeq  uint64
	stopped  bool
	executed uint64
}

func newRefEngine() *refEngine { return &refEngine{} }

func (e *refEngine) Now() Time        { return e.now }
func (e *refEngine) Pending() int     { return len(e.heap) }
func (e *refEngine) Executed() uint64 { return e.executed }

func (e *refEngine) less(a, b int32) bool {
	sa, sb := &e.slots[a], &e.slots[b]
	if sa.at != sb.at {
		return sa.at < sb.at
	}
	return sa.seq < sb.seq
}

func (e *refEngine) siftUp(i int) {
	h := e.heap
	idx := h[i]
	for i > 0 {
		parent := (i - 1) >> 2
		if !e.less(idx, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = idx
}

func (e *refEngine) siftDown(i int) {
	h := e.heap
	n := len(h)
	idx := h[i]
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if e.less(h[c], h[min]) {
				min = c
			}
		}
		if !e.less(h[min], idx) {
			break
		}
		h[i] = h[min]
		i = min
	}
	h[i] = idx
}

func (e *refEngine) alloc() int32 {
	if n := len(e.free); n > 0 {
		idx := e.free[n-1]
		e.free = e.free[:n-1]
		return idx
	}
	e.slots = append(e.slots, eventSlot{gen: 1})
	return int32(len(e.slots) - 1)
}

func (e *refEngine) release(idx int32) {
	s := &e.slots[idx]
	s.fn = nil
	s.argFn = nil
	s.arg = nil
	s.canceled = false
	s.gen++
	if s.gen == 0 {
		s.gen = 1
	}
	e.free = append(e.free, idx)
}

func (e *refEngine) schedule(at Time, fn func(Time), argFn func(Time, any), arg any) EventID {
	if at < e.now {
		panic(fmt.Sprintf("sim: Schedule in the past: at=%v now=%v", at, e.now))
	}
	idx := e.alloc()
	s := &e.slots[idx]
	s.at = at
	s.seq = e.nextSeq
	s.fn = fn
	s.argFn = argFn
	s.arg = arg
	e.nextSeq++
	e.heap = append(e.heap, idx)
	e.siftUp(len(e.heap) - 1)
	return EventID{slot: idx, gen: s.gen}
}

func (e *refEngine) Schedule(at Time, fn func(now Time)) EventID {
	if fn == nil {
		panic("sim: Schedule called with nil callback")
	}
	return e.schedule(at, fn, nil, nil)
}

func (e *refEngine) ScheduleArg(at Time, fn func(now Time, arg any), arg any) EventID {
	if fn == nil {
		panic("sim: ScheduleArg called with nil callback")
	}
	return e.schedule(at, nil, fn, arg)
}

func (e *refEngine) ScheduleAfter(delay Time, fn func(now Time)) EventID {
	if delay < 0 {
		delay = 0
	}
	return e.Schedule(e.now+delay, fn)
}

// Reschedule is the reference semantics of Engine.Reschedule: cancel the old
// occurrence (a no-op when the id is stale) and schedule a fresh one,
// consuming exactly one sequence number.
func (e *refEngine) Reschedule(id EventID, at Time, fn func(now Time)) EventID {
	if fn == nil {
		panic("sim: Reschedule called with nil callback")
	}
	e.Cancel(id)
	return e.schedule(at, fn, nil, nil)
}

func (e *refEngine) Cancel(id EventID) {
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

func (e *refEngine) compact() {
	h := e.heap[:0]
	for _, idx := range e.heap {
		if e.slots[idx].canceled {
			e.release(idx)
		} else {
			h = append(h, idx)
		}
	}
	e.heap = h
	e.canceled = 0
	for i := (len(h) - 2) >> 2; i >= 0; i-- {
		e.siftDown(i)
	}
}

// CancelArgs is the reference semantics of Engine.CancelArgs: every pending
// ScheduleArg event is canceled and its argument handed to reclaim. A lane
// push is a plain ScheduleArg here, so lane events are among them.
func (e *refEngine) CancelArgs(reclaim func(arg any)) {
	for _, idx := range e.heap {
		s := &e.slots[idx]
		if s.argFn == nil || s.canceled {
			continue
		}
		reclaim(s.arg)
		s.arg = nil
		s.canceled = true
		e.canceled++
	}
}

func (e *refEngine) Stop() { e.stopped = true }

// Reset matches Engine.Reset: discard all pending events (staling their
// ids), rewind the clock and counters, keep the slab for reuse.
func (e *refEngine) Reset() {
	for _, idx := range e.heap {
		e.release(idx)
	}
	e.heap = e.heap[:0]
	e.canceled = 0
	e.now = 0
	e.stopped = false
	e.executed = 0
	e.nextSeq = 0
}

func (e *refEngine) popTop() int32 {
	h := e.heap
	idx := h[0]
	n := len(h) - 1
	h[0] = h[n]
	e.heap = h[:n]
	if n > 0 {
		e.siftDown(0)
	}
	return idx
}

func (e *refEngine) execTop() bool {
	top := e.heap[0]
	s := &e.slots[top]
	at := s.at
	fn, argFn, arg := s.fn, s.argFn, s.arg
	canceled := s.canceled
	e.popTop()
	e.release(top)
	if canceled {
		e.canceled--
		return false
	}
	e.now = at
	e.executed++
	if fn != nil {
		fn(at)
	} else {
		argFn(at, arg)
	}
	return true
}

func (e *refEngine) Run(until Time) {
	e.stopped = false
	for len(e.heap) > 0 && !e.stopped {
		if e.slots[e.heap[0]].at > until {
			break
		}
		e.execTop()
	}
	// A stopped Run leaves the clock at the event that stopped it: earlier
	// events may still be pending.
	if !e.stopped && e.now < until {
		e.now = until
	}
}

func (e *refEngine) Step() bool {
	for len(e.heap) > 0 {
		if e.execTop() {
			return true
		}
	}
	return false
}
