package sim

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

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
	// heapPos is the slot's position in the overflow heap, or -1 while the
	// event sits in a calendar bucket. Tracking it makes Reschedule of a
	// far-future event (the per-ACK RTO pattern) an in-place heap move.
	heapPos int32
	// canceled events stay queued but are skipped when popped; this is
	// cheaper than removing them eagerly and keeps Cancel O(1). The engine
	// compacts the queue when canceled entries pile up.
	canceled bool
}

// Engine is a discrete-event simulation engine: a clock plus an ordered
// queue of future callbacks. It is not safe for concurrent use; parallelism
// in this repository is achieved by running many independent engines (one
// per network specimen), never by sharing one.
//
// The event queue is a calendar queue (Brown 1988) over a slab of
// value-typed slots with a free list: near-future events hash by time into
// an array of buckets whose width is tuned to the observed inter-event
// spacing, and far-future events (beyond the calendar's horizon — RTO
// timers, mostly) wait in a 4-ary heap "overflow rung". Inserts are O(1)
// appends, and the pop path only ever sorts the one bucket at the head of
// the calendar, so the dense per-packet event horizon of a busy simulation
// costs amortized O(1) per event instead of the heap's O(log n) sift per
// operation. The original heap engine survives as the refEngine reference
// implementation (reference.go), which differential tests and
// FuzzEngineVsReference hold this implementation to, fire-for-fire.
//
// Invariants:
//   - every queued event has at >= now;
//   - every calendar-bucket event has at < threshold, and every overflow
//     event has at >= the threshold in force when it was inserted, which
//     only ever decreases between rebuilds — so the earliest pending event
//     always lives in a bucket whenever any bucket is occupied;
//   - buckets before cur are empty; cur is a hint, rewound by inserts;
//   - when curSorted, buckets[cur][curHead:] is sorted ascending by
//     (at, seq) and entries before curHead are already popped.
type Engine struct {
	now   Time
	slots []eventSlot
	free  []int32 // reclaimed slot indices (LIFO for cache locality)

	// Calendar rung: buckets[b] holds events with
	// anchor+b*width <= at < anchor+(b+1)*width (bucket 0 also catches
	// anything earlier than anchor after a rebuild re-anchored ahead of a
	// subsequent insert — the "low clamp"). Entries carry the ordering key
	// (at, seq) inline next to the slot index, so sorting, binary inserts
	// and redistribution compare contiguous memory without chasing slots.
	buckets [][]bucketEntry
	nb      int // buckets in use: buckets[:nb] (capacity may exceed it)
	anchor  Time
	// width is always a power of two (widthShift is its log2), so the
	// per-insert bucket hash is a shift, not an int64 division.
	width      Time // 0 until the first rebuild tunes the calendar
	widthShift uint
	threshold  Time // anchor + nb*width, saturated at maxTime
	cur        int  // first possibly-occupied bucket
	curSorted  bool
	curHead    int
	inBuckets  int // events (live + canceled) across all buckets

	// Overflow rung: 4-ary min-heap by (at, seq) of far-future events.
	overflow []int32

	scratch  []int32       // rebuild's overflow staging, reused across calls
	scratchE []bucketEntry // splitRebuild's staging, reused across calls

	// canceled counts canceled events still queued; when they outnumber
	// live ones the queue is compacted and their slots reclaimed.
	canceled int
	nextSeq  uint64
	stopped  bool
	// executed counts events run, which tests and benchmarks use to verify
	// workload sizes.
	executed uint64

	// Rearm support: while a callback runs, its slot is held (not released)
	// so Rearm can reinsert it in place with zero churn.
	inCallback bool
	execIdx    int32
	rearmed    bool
	rearmAt    Time
	rearmSeq   uint64
}

// compactMin is the minimum number of canceled queued events before a
// compaction is considered; below it the bookkeeping is not worth it.
const compactMin = 64

// maxTime is the saturation value for the calendar horizon.
const maxTime = Time(math.MaxInt64)

// minBuckets/maxBuckets bound the calendar size; splitMin is the current-
// bucket occupancy past which a rebuild re-tunes the bucket width to the
// dense cluster instead of sorting one oversized bucket per pop.
const (
	minBuckets = 64
	maxBuckets = 1 << 16
	splitMin   = 128
)

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Pending returns the number of events currently scheduled (including
// canceled events not yet discarded).
func (e *Engine) Pending() int { return e.inBuckets + len(e.overflow) }

// Executed returns the number of events that have run.
func (e *Engine) Executed() uint64 { return e.executed }

// less orders queue entries by (time, insertion sequence).
func (e *Engine) less(a, b int32) bool {
	sa, sb := &e.slots[a], &e.slots[b]
	if sa.at != sb.at {
		return sa.at < sb.at
	}
	return sa.seq < sb.seq
}

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

// release reclaims a slot, clearing its references and advancing its
// generation so outstanding EventIDs go stale.
func (e *Engine) release(idx int32) {
	s := &e.slots[idx]
	s.fn = nil
	s.argFn = nil
	s.arg = nil
	s.canceled = false
	s.heapPos = -1
	s.gen++
	if s.gen == 0 { // generation wrapped; 0 must stay "invalid id"
		s.gen = 1
	}
	e.free = append(e.free, idx)
}

// bucketFor maps an event time (already known to be below threshold) to its
// bucket. Times before the anchor — possible when a rebuild anchored at a
// far-future overflow minimum and a later insert lands earlier — clamp to
// bucket 0, which keeps every bucket's time range monotone.
func (e *Engine) bucketFor(at Time) int {
	if at < e.anchor {
		return 0
	}
	return int((at - e.anchor) >> e.widthShift)
}

// insert places an already-filled slot into the calendar or the overflow
// rung according to its time.
//
//repo:hotpath per-event calendar placement
func (e *Engine) insert(idx int32) {
	s := &e.slots[idx]
	if e.width == 0 || s.at >= e.threshold {
		e.overflowPush(idx)
		return
	}
	s.heapPos = -1
	en := bucketEntry{at: s.at, seq: s.seq, idx: idx}
	b := e.bucketFor(en.at)
	e.inBuckets++
	if b < e.cur {
		// Rewind the head hint; the skipped buckets stayed empty, so the
		// invariant holds. The old cur bucket must first shed its popped
		// prefix — once cur moves away, curHead no longer guards it.
		if e.curSorted && e.curHead > 0 {
			old := e.buckets[e.cur]
			//lint:ignore hotalloc compacts in place into the bucket's existing backing array
			e.buckets[e.cur] = append(old[:0], old[e.curHead:]...)
		}
		e.cur = b
		e.curSorted = false
		e.curHead = 0
		//lint:ignore hotalloc bucket slices keep their capacity across Reset; append is amortized-free once warm
		e.buckets[b] = append(e.buckets[b], en)
		return
	}
	if b == e.cur && e.curSorted {
		bk := e.buckets[b]
		// New events carry the largest sequence number, so ties on time
		// always land after existing entries: anything at or past the
		// current tail appends, O(1) — the common case both for ascending
		// service-completion times and equal-timestamp storms.
		if en.at >= bk[len(bk)-1].at {
			//lint:ignore hotalloc bucket slices keep their capacity across Reset; append is amortized-free once warm
			e.buckets[b] = append(bk, en)
			return
		}
		if len(bk)-e.curHead >= splitMin && bk[e.curHead].at != bk[len(bk)-1].at {
			// The live bucket has grown into a dense, splittable cluster —
			// the calendar width is tuned too coarse for the current event
			// spacing. Re-tune rather than degenerate into an insertion-
			// sorted array.
			e.inBuckets-- // splitRebuild recounts; this slot is re-placed below
			e.splitRebuild()
			e.inBuckets++
			if en.at >= e.threshold {
				e.inBuckets--
				e.overflowPush(idx)
				return
			}
			//lint:ignore hotalloc post-split placement; buckets reuse retained capacity
			e.buckets[e.bucketFor(en.at)] = append(e.buckets[e.bucketFor(en.at)], en)
			return
		}
		// Binary insert into the sorted tail, comparing inline keys.
		lo, hi := e.curHead, len(bk)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if bk[mid].at < en.at || (bk[mid].at == en.at && bk[mid].seq < en.seq) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		//lint:ignore hotalloc grows into the sorted bucket's retained capacity before the shift-insert
		bk = append(bk, bucketEntry{})
		copy(bk[lo+1:], bk[lo:])
		bk[lo] = en
		e.buckets[b] = bk
		return
	}
	//lint:ignore hotalloc bucket slices keep their capacity across Reset; append is amortized-free once warm
	e.buckets[b] = append(e.buckets[b], en)
}

// overflow heap primitives; oSet keeps slots' heapPos in sync with every
// index move so Reschedule can relocate an entry in O(log n).

func (e *Engine) oSet(pos int, idx int32) {
	e.overflow[pos] = idx
	e.slots[idx].heapPos = int32(pos)
}

func (e *Engine) overflowPush(idx int32) {
	e.overflow = append(e.overflow, idx)
	e.oSet(len(e.overflow)-1, idx)
	e.overflowUp(len(e.overflow) - 1)
}

func (e *Engine) overflowUp(i int) {
	h := e.overflow
	idx := h[i]
	for i > 0 {
		parent := (i - 1) >> 2
		if !e.less(idx, h[parent]) {
			break
		}
		e.oSet(i, h[parent])
		i = parent
	}
	e.oSet(i, idx)
}

func (e *Engine) overflowDown(i int) {
	h := e.overflow
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
		e.oSet(i, h[min])
		i = min
	}
	e.oSet(i, idx)
}

// overflowRemove deletes the entry at heap position pos.
func (e *Engine) overflowRemove(pos int) {
	n := len(e.overflow) - 1
	moved := e.overflow[n]
	e.overflow = e.overflow[:n]
	if pos == n {
		return
	}
	e.oSet(pos, moved)
	e.overflowDown(pos)
	e.overflowUp(pos)
}

// retune re-anchors the calendar: anchor at the earliest pending time m,
// bucket width at twice the mean inter-event spacing of the n events
// spanning [m, M] (the classic calendar-queue heuristic: ~half-full
// buckets), and a power-of-two bucket count close to n. maxThreshold caps
// the horizon so events already parked in the overflow rung can never be
// undercut by a bucket entry scheduled after them.
func (e *Engine) retune(m, M Time, n int, maxThreshold Time) {
	e.anchor = m
	span := M - m
	w := 4 * span / Time(n)
	if w < 1 {
		w = 1
	}
	// Round the width up to a power of two: the bucket hash becomes a shift
	// (int64 division is ~20× a shift and sits on every insert), at the cost
	// of buckets up to 2× wider than the classic heuristic asks for.
	e.widthShift = uint(bits.Len64(uint64(w) - 1))
	w = 1 << e.widthShift
	e.width = w
	nb := n
	if nb < minBuckets {
		nb = minBuckets
	}
	if nb > maxBuckets {
		nb = maxBuckets
	}
	nb = 1 << bits.Len(uint(nb-1)) // next power of two
	if nb > maxBuckets {
		nb = maxBuckets
	}
	if nb > len(e.buckets) {
		for len(e.buckets) < nb {
			e.buckets = append(e.buckets, nil)
		}
	} else {
		// Shrinking just forgets the tail slices' capacity; keep them —
		// the calendar re-expands without reallocating.
		for i := nb; i < len(e.buckets); i++ {
			e.buckets[i] = e.buckets[i][:0]
		}
	}
	e.nb = nb
	if w > (maxTime-m)/Time(nb) {
		e.threshold = maxTime
	} else {
		e.threshold = m + Time(nb)*w
	}
	if e.threshold > maxThreshold {
		e.threshold = maxThreshold
	}
	e.cur = 0
	e.curSorted = false
	e.curHead = 0
}

// rebuild migrates the overflow rung into a freshly tuned calendar. Called
// only when the buckets are empty and the overflow is not; because the new
// anchor is the overflow minimum and the horizon covers at least minBuckets
// widths, at least that minimum migrates, so progress is guaranteed.
func (e *Engine) rebuild() {
	m, M := maxTime, Time(0)
	for _, idx := range e.overflow {
		at := e.slots[idx].at
		if at < m {
			m = at
		}
		if at > M {
			M = at
		}
	}
	e.retune(m, M, len(e.overflow), maxTime)
	e.scratch = e.scratch[:0]
	for _, idx := range e.overflow {
		s := &e.slots[idx]
		if s.at >= e.threshold {
			e.scratch = append(e.scratch, idx)
			continue
		}
		s.heapPos = -1
		b := e.bucketFor(s.at)
		e.buckets[b] = append(e.buckets[b], bucketEntry{at: s.at, seq: s.seq, idx: idx})
		e.inBuckets++
	}
	e.overflow = e.overflow[:0]
	for _, idx := range e.scratch {
		e.overflow = append(e.overflow, idx)
	}
	for i := range e.overflow {
		e.slots[e.overflow[i]].heapPos = int32(i)
	}
	for i := (len(e.overflow) - 2) >> 2; i >= 0; i-- {
		e.overflowDown(i)
	}
}

// splitRebuild re-tunes the calendar to the dense cluster found in the
// current bucket (whose occupancy exceeded splitMin with distinct times) and
// redistributes every bucketed event under the new width. The overflow rung
// is untouched, so the new horizon is capped at the old one.
func (e *Engine) splitRebuild() {
	e.scratchE = e.scratchE[:0]
	m, M := maxTime, Time(0)
	n := 0
	for bi := e.cur; bi < e.nb; bi++ {
		bk := e.buckets[bi]
		start := 0
		if bi == e.cur && e.curSorted {
			start = e.curHead
		}
		for _, en := range bk[start:] {
			if bi == e.cur {
				if en.at < m {
					m = en.at
				}
				if en.at > M {
					M = en.at
				}
				n++
			}
			e.scratchE = append(e.scratchE, en)
		}
		e.buckets[bi] = bk[:0]
	}
	oldThreshold := e.threshold
	e.inBuckets = 0
	e.retune(m, M, n, oldThreshold)
	for _, en := range e.scratchE {
		if en.at >= e.threshold {
			e.overflowPush(en.idx)
			continue
		}
		e.buckets[e.bucketFor(en.at)] = append(e.buckets[e.bucketFor(en.at)], en)
		e.inBuckets++
	}
}

// first readies the earliest pending event for inspection and returns its
// slot index, or -1 when the queue is empty. After it returns >= 0, the
// entry is buckets[cur][curHead] with curSorted set.
//
//repo:hotpath per-event dispatch: next-event selection
func (e *Engine) first() int32 {
	for {
		if e.inBuckets == 0 {
			if len(e.overflow) == 0 {
				return -1
			}
			e.rebuild()
		}
		// Advance cur to the first occupied bucket.
		for {
			bk := e.buckets[e.cur]
			if e.curSorted {
				if e.curHead < len(bk) {
					return bk[e.curHead].idx
				}
				e.buckets[e.cur] = bk[:0]
				e.curSorted = false
				e.curHead = 0
				e.cur++
			} else if len(bk) == 0 {
				e.cur++
			} else {
				break
			}
		}
		bk := e.buckets[e.cur]
		if len(bk) >= splitMin {
			// Check whether the cluster is splittable (distinct times);
			// an equal-timestamp storm is not, and simply gets sorted.
			first := bk[0].at
			for _, en := range bk[1:] {
				if en.at != first {
					e.splitRebuild()
					bk = nil
					break
				}
			}
			if bk == nil {
				continue
			}
		}
		e.sortBucket(bk)
		e.curSorted = true
		e.curHead = 0
		return bk[0].idx
	}
}

// bucketEntry is one calendar-bucket element: the event's ordering key
// copied out of its slot next to the slot index. The slot remains the source
// of truth for execution; the inline copy is immutable while queued (a
// bucketed event's time never changes in place — Reschedule lazily cancels
// and re-inserts), so the two can never disagree.
type bucketEntry struct {
	at  Time
	seq uint64
	idx int32
}

// sortBucket sorts one bucket in place by (at, seq); the keys live inline in
// the entries, so no slot is touched. Buckets are typically a handful of
// entries, where a direct insertion sort beats the generic sort's comparator
// calls; large buckets fall back to it.
func (e *Engine) sortBucket(bk []bucketEntry) {
	if len(bk) <= 24 {
		for i := 1; i < len(bk); i++ {
			k := bk[i]
			j := i - 1
			for j >= 0 && (bk[j].at > k.at || (bk[j].at == k.at && bk[j].seq > k.seq)) {
				bk[j+1] = bk[j]
				j--
			}
			bk[j+1] = k
		}
		return
	}
	slices.SortFunc(bk, func(a, b bucketEntry) int {
		if a.at != b.at {
			if a.at < b.at {
				return -1
			}
			return 1
		}
		if a.seq < b.seq {
			return -1
		}
		return 1
	})
}

// popFirst removes the entry readied by first, eagerly retiring the bucket
// once its last entry is popped so no popped index ever lingers where a
// rebuild or cur rewind could resurface it.
//
//repo:hotpath per-event dispatch: queue pop
func (e *Engine) popFirst() {
	e.curHead++
	e.inBuckets--
	if bk := e.buckets[e.cur]; e.curHead == len(bk) {
		e.buckets[e.cur] = bk[:0]
		e.curHead = 0
		e.curSorted = false
		e.cur++
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

//repo:hotpath every event scheduled in a simulation passes through here
func (e *Engine) schedule(at Time, fn func(Time), argFn func(Time, any), arg any) EventID {
	if at < e.now {
		//lint:ignore hotalloc panic-path formatting; a causality violation aborts the run
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
	gen := s.gen
	e.insert(idx)
	return EventID{slot: idx, gen: gen}
}

// Reschedule moves a recurring event to a new time: it atomically cancels
// the old occurrence (a no-op when id is stale or already canceled) and
// schedules fn at the new time, returning the new id. It is observably
// identical to Cancel+Schedule — one sequence number is consumed either way
// — but when the event waits in the overflow rung (the per-ACK RTO pattern:
// a timer parked hundreds of milliseconds out, pushed back on every ACK) the
// slot is moved in place instead of being lazily canceled and re-allocated,
// so the retransmit timer never piles dead entries into the queue.
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
		if s.gen == id.gen && !s.canceled && s.heapPos >= 0 {
			// Live, in the overflow heap: move in place.
			s.at = at
			s.seq = e.nextSeq
			e.nextSeq++
			s.fn = fn
			s.argFn = nil
			s.arg = nil
			s.gen++
			if s.gen == 0 {
				s.gen = 1
			}
			pos := int(s.heapPos)
			if e.width != 0 && at < e.threshold {
				// The new time fell under the calendar horizon; migrate.
				e.overflowRemove(pos)
				e.insert(id.slot)
			} else {
				e.overflowDown(pos)
				e.overflowUp(int(s.heapPos))
			}
			return EventID{slot: id.slot, gen: s.gen}
		}
		if s.gen == id.gen && !s.canceled {
			// Live, in a bucket: lazy-cancel like Cancel would, then fall
			// through to a fresh schedule (which consumes the one seq).
			s.canceled = true
			e.canceled++
		}
	}
	return e.schedule(at, fn, nil, nil)
}

// Rearm reschedules the currently executing event's callback at the given
// time, reusing its slot with no free-list churn. It may only be called from
// inside an event callback, at most once per firing, and consumes the
// sequence number at the point of the call — so the fire order is exactly
// that of an equivalent Schedule issued at the same spot. The returned id
// cancels the rearmed occurrence. Recurring per-packet events (link service
// completions) use this to turn schedule/fire/release churn into one
// long-lived slot.
//
//repo:hotpath per-packet link service retargeting
func (e *Engine) Rearm(at Time) EventID {
	if !e.inCallback {
		panic("sim: Rearm called outside an executing event callback")
	}
	if e.rearmed {
		panic("sim: Rearm called twice from one event callback")
	}
	if at < e.now {
		//lint:ignore hotalloc panic-path formatting; a causality violation aborts the run
		panic(fmt.Sprintf("sim: Schedule in the past: at=%v now=%v", at, e.now))
	}
	e.rearmed = true
	e.rearmAt = at
	e.rearmSeq = e.nextSeq
	e.nextSeq++
	return EventID{slot: e.execIdx, gen: e.slots[e.execIdx].gen}
}

// Cancel prevents a previously scheduled event from running. Canceling an
// event that already ran, or an invalid id, is a no-op. Cancel is O(1): the
// entry stays queued and is skipped when popped, and piles of canceled
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
	if e.canceled >= compactMin && e.canceled*2 >= e.Pending() {
		e.compact()
	}
}

// compact removes every canceled entry from the calendar and the overflow
// rung, reclaims their slots, and restores ordering state in one pass.
func (e *Engine) compact() {
	for bi := e.cur; bi < e.nb; bi++ {
		bk := e.buckets[bi]
		start := 0
		if bi == e.cur && e.curSorted {
			start = e.curHead
		}
		kept := bk[:0]
		for _, en := range bk[start:] {
			if e.slots[en.idx].canceled {
				e.release(en.idx)
				e.inBuckets--
			} else {
				kept = append(kept, en)
			}
		}
		e.buckets[bi] = kept
	}
	if e.curSorted {
		// The survivors were rewritten from index 0, still in sorted order;
		// a bucket emptied entirely loses its sorted-head state.
		e.curHead = 0
		if len(e.buckets[e.cur]) == 0 {
			e.curSorted = false
		}
	}
	kept := e.overflow[:0]
	for _, idx := range e.overflow {
		if e.slots[idx].canceled {
			e.release(idx)
		} else {
			kept = append(kept, idx)
		}
	}
	e.overflow = kept
	for i := range e.overflow {
		e.slots[e.overflow[i]].heapPos = int32(i)
	}
	for i := (len(e.overflow) - 2) >> 2; i >= 0; i-- {
		e.overflowDown(i)
	}
	e.canceled = 0
}

// eachPending calls visit with the slot index of every queued event, live or
// canceled, in no particular order.
func (e *Engine) eachPending(visit func(idx int32)) {
	for bi := e.cur; bi < e.nb; bi++ {
		bk := e.buckets[bi]
		if bi == e.cur && e.curSorted {
			bk = bk[e.curHead:]
		}
		for _, en := range bk {
			visit(en.idx)
		}
	}
	for _, idx := range e.overflow {
		visit(idx)
	}
}

// CancelArgs cancels every pending ScheduleArg event and hands each one's
// argument to reclaim, in no particular order. It exists for the owner of
// pooled event arguments — netsim's packets and ack carriers in flight — to
// take them back before a reset; Reset alone would drop them with their
// slots, and every warm run would re-allocate a bandwidth-delay product of
// them. All ScheduleArg events are canceled, whoever scheduled them, so an
// engine's arguments must have one owner.
func (e *Engine) CancelArgs(reclaim func(arg any)) {
	e.eachPending(func(idx int32) {
		s := &e.slots[idx]
		if s.argFn == nil || s.canceled {
			return
		}
		reclaim(s.arg)
		s.arg = nil
		s.canceled = true
		e.canceled++
	})
}

// Stop makes Run return after the currently executing event completes.
func (e *Engine) Stop() { e.stopped = true }

// Reset discards all pending events (outstanding EventIDs and Timers go
// stale, never firing), rewinds the clock to zero and zeroes the counters,
// while keeping the slot slab, free list, bucket and heap capacity for
// reuse. A pooled engine Reset between runs schedules with zero allocation
// from the first event on. The calendar tuning is also cleared: bucket
// widths are re-learned from the next run's own event spacing, so reuse
// cannot change any run's observable behavior.
func (e *Engine) Reset() {
	if e.inCallback {
		panic("sim: Reset called from inside an event callback")
	}
	e.eachPending(e.release)
	for bi := e.cur; bi < e.nb; bi++ {
		e.buckets[bi] = e.buckets[bi][:0]
	}
	e.overflow = e.overflow[:0]
	e.inBuckets = 0
	e.canceled = 0
	e.cur = 0
	e.curSorted = false
	e.curHead = 0
	e.anchor = 0
	e.width = 0
	e.threshold = 0
	e.now = 0
	e.stopped = false
	e.executed = 0
	e.nextSeq = 0
}

// execFirst pops the earliest event (readied by first) and runs it,
// reporting whether a live (non-canceled) event executed. The slot's
// generation advances before the callback runs — so the event's own id is
// already stale inside the callback, exactly as if the slot had been
// released — but the slot itself is held until the callback returns, which
// lets Rearm reinsert it in place.
func (e *Engine) execFirst(idx int32) bool {
	e.popFirst()
	s := &e.slots[idx]
	if s.canceled {
		e.canceled--
		e.release(idx)
		return false
	}
	at := s.at
	fn, argFn, arg := s.fn, s.argFn, s.arg
	s.gen++
	if s.gen == 0 {
		s.gen = 1
	}
	e.now = at
	e.executed++
	e.inCallback = true
	e.execIdx = idx
	e.rearmed = false
	if fn != nil {
		fn(at)
	} else {
		argFn(at, arg)
	}
	e.inCallback = false
	// The callback may have scheduled events and grown the slab; re-take the
	// pointer by index.
	s = &e.slots[idx]
	if e.rearmed {
		s.at = e.rearmAt
		s.seq = e.rearmSeq
		e.insert(idx)
	} else {
		// Clear and reclaim without advancing the generation again (it
		// already moved before the callback).
		s.fn = nil
		s.argFn = nil
		s.arg = nil
		s.canceled = false
		s.heapPos = -1
		e.free = append(e.free, idx)
	}
	return true
}

// Run executes events in time order until the queue is empty or the clock
// would pass the `until` horizon. The clock is left at min(until, time of
// last executed event); events scheduled after `until` remain queued.
func (e *Engine) Run(until Time) {
	e.stopped = false
	for !e.stopped {
		idx := e.first()
		if idx < 0 || e.slots[idx].at > until {
			break
		}
		e.execFirst(idx)
	}
	if e.now < until {
		e.now = until
	}
}

// Step executes the single next event, if any, and reports whether one ran.
func (e *Engine) Step() bool {
	for {
		idx := e.first()
		if idx < 0 {
			return false
		}
		if e.execFirst(idx) {
			return true
		}
	}
}
