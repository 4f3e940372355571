package sim

import (
	"cmp"
	"fmt"
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
	// event sits in a calendar bucket. Tracking it makes pulling a far-future
	// event in an in-place heap move.
	heapPos int32
	// canceled events stay queued but are skipped when popped; this is
	// cheaper than removing them eagerly and keeps Cancel O(1). The engine
	// re-files the queue without them when canceled entries pile up.
	canceled bool
	// deferred means the event is wanted under the key (wantAt, wantSeq), not
	// the (at, seq) it is filed under: a push-back that Reschedule recorded
	// instead of carrying out. The slot moves to that key the next time the
	// engine has it in hand — when its filing reaches the head (see refile).
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

// Engine is a discrete-event simulation engine: a clock plus an ordered
// queue of future callbacks. It is not safe for concurrent use; parallelism
// in this repository is achieved by running many independent engines (one
// per network specimen), never by sharing one.
//
// The event queue is a circular calendar queue (Brown 1988) over a slab of
// value-typed slots with a free list. Time is cut into days of 1<<shift µs;
// the nb days from curDay on — the calendar's year — each own one bucket
// (day & mask), and events beyond the year (RTO timers, mostly) wait in a
// 4-ary heap, the overflow rung, until the head's advance brings their day
// into the year. Inserts are O(1) appends and the pop path only ever sorts
// the one bucket at the head, so a busy simulation pays amortized O(1) per
// event instead of a heap's O(log n) sift. Day width and bucket count are not
// configured: every tunePeriod steps the calendar re-derives them from the
// rate at which events actually left it (see tune). The 4-ary heap engine
// this replaced is refEngine in reference_test.go, which the differential
// tests and FuzzEngineVsReference hold this implementation to,
// fire-for-fire.
//
// Beside the calendar the engine keeps up to maxLanes FIFO lanes (see Lane)
// for event streams that are sorted by construction — constant-delay
// propagation, a link's one pending service event — and every step runs the
// smaller by (at, seq) of the calendar's head and the earliest lane head. The
// fire order is that of a calendar holding every event: a merge of sorted
// sequences under one total order. The tuner and Cancel's compaction look at
// the calendar's own events only; Pending counts both.
//
// Invariants, whenever control is outside the engine (between calls, and
// inside event callbacks):
//   - curDay <= now>>shift: the head never runs ahead of the clock, so an
//     event scheduled at or after now can never land behind the head;
//   - a bucketed event of day d has curDay <= d < curDay+nb and sits in
//     buckets[d&mask], so a bucket never mixes days and the earliest pending
//     event is in the first occupied bucket from curDay on;
//   - an overflow event has d >= curDay+nb (migrate restores this each time
//     curDay moves, rebucket each time shift or nb does);
//   - curSorted means buckets[curDay&mask][curHead:] is non-empty and sorted
//     ascending by (at, seq); entries before curHead are already popped;
//   - a queued slot's bucket entry or heap position is keyed by its (at, seq),
//     deferred or not; a deferred slot has wantAt >= at and wantSeq > seq, so
//     the filing it waits under always pops before the key it is wanted at;
//   - each lane's entries are sorted ascending by (at, seq) — an entry is
//     appended only at or after the lane's newest time, under a fresh sequence
//     number; heads[i] is lane i's head key (noHead when empty) and best/bestKey
//     name the smallest of them. The head is only ever readied up to the
//     earliest lane head's day, so curDay <= now>>shift holds inside lane
//     callbacks too.
type Engine struct {
	now   Time
	slots []eventSlot
	free  []int32 // reclaimed slot indices (LIFO for cache locality)

	// Calendar rung. len(buckets) may exceed nb: the tail keeps its slices'
	// capacity for when the calendar regrows.
	buckets   [][]bucketEntry
	nb        int   // buckets in use, a power of two
	mask      int64 // nb - 1
	shift     uint  // log2 of the day width in µs
	curDay    int64 // the day being served
	curSorted bool
	curHead   int
	inBuckets int // events (live + canceled) across all buckets

	// Overflow rung: 4-ary min-heap by (at, seq) of events beyond the year.
	overflow []int32

	scratch []int32 // rebucket's staging, reused across calls

	// Tuner state: steps (pops + empty-bucket visits) since the period began,
	// where the calendar stood then, and the counters' values then.
	ticks       int
	tuneAt      Time
	tuneEmpties uint64
	tuneMisses  uint64
	stats       calStats

	// canceled counts canceled events still queued; when they outnumber
	// live ones the queue is compacted and their slots reclaimed.
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

// calStats counts what the calendar did over the engine's lifetime (Reset
// keeps them). The tuner works from the per-period deltas of empties and
// misses; the tests pin the calendar's behaviour through the rest.
type calStats struct {
	empties uint64 // empty buckets the head stepped over
	misses  uint64 // inserts that fell beyond the year

	sorts, sorted uint64 // bucket sorts, and entries across them
	migrated      uint64 // events moved from the overflow rung into a bucket

	widen, narrow, grow, shrink, missGrow uint64 // tune's decisions
	// Reschedule to an earlier time of a bucketed event: lifted out of an
	// unsorted bucket, out of the sorted head bucket, or canceled lazily (bucket
	// too long to scan).
	movedUnsorted, movedSorted, movedLazy uint64
	// Reschedule to the same or a later time: push-backs recorded in the slot,
	// and filings that reached the head only to be moved to the recorded key.
	deferred, headVisits uint64
	// Lane pushes: appended to a lane, filed on the calendar because they would
	// have broken the lane's order, and NewLane calls refused at the cap.
	laned, laneFallbacks, laneRefused uint64
}

// Queue constants. None is a knob: the tuner moves shift and nb within their
// bounds on its own.
const (
	// compactMin is how many canceled events must be queued before Cancel
	// considers re-filing the queue without them.
	compactMin = 64
	minBuckets = 64
	maxBuckets = 1 << 16
	// maxShift caps a day at 2^40 µs (~13 simulated days); it keeps the
	// tuner's arithmetic far from overflow, and later events simply wait in
	// the overflow rung.
	maxShift = 40
	// tunePeriod is how many steps (pops + empty-bucket visits) pass between
	// two looks at the dequeue rate.
	tunePeriod = 512
	// liftMax is the longest bucket Reschedule scans to pull a bucketed event
	// in; past it (equal-timestamp storms) it cancels lazily instead.
	liftMax = 32
)

// NewEngine returns an engine with the clock at zero and no pending events.
// Its calendar starts at the smallest size and the narrowest day; the tuner
// corrects both within one period of the first run.
func NewEngine() *Engine {
	e := &Engine{buckets: make([][]bucketEntry, minBuckets), nb: minBuckets, mask: minBuckets - 1, best: -1, bestKey: noHead}
	for i := range e.heads {
		e.heads[i] = noHead
	}
	return e
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Pending returns the number of events currently scheduled, on the calendar
// (including canceled events not yet discarded) and in lanes.
func (e *Engine) Pending() int { return e.queued() + e.inLanes }

// queued returns the number of events on the calendar, live or canceled: what
// the tuner sizes the bucket array for and Cancel weighs canceled entries
// against. Lane events are not its business.
func (e *Engine) queued() int { return e.inBuckets + len(e.overflow) }

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

// release reclaims a slot whose event will never run, advancing its
// generation so outstanding EventIDs go stale.
func (e *Engine) release(idx int32) {
	e.slots[idx].nextGen()
	e.recycle(idx)
}

// recycle clears a slot's references and returns it to the free list.
func (e *Engine) recycle(idx int32) {
	s := &e.slots[idx]
	s.fn = nil
	s.argFn = nil
	s.arg = nil
	s.canceled = false
	s.deferred = false
	s.heapPos = -1
	e.free = append(e.free, idx)
}

// far reports whether an event at the given time lies beyond the calendar
// year and so belongs in the overflow rung. Days are compared as differences:
// both are non-negative, so nothing wraps even for an event at MaxTime.
func (e *Engine) far(at Time) bool {
	return int64(at)>>e.shift-e.curDay >= int64(e.nb)
}

// insert places an already-filled slot into the bucket of its day, or into
// the overflow rung when that day is beyond the year.
//
//repo:hotpath per-event calendar placement
func (e *Engine) insert(idx int32) {
	s := &e.slots[idx]
	d := int64(s.at) >> e.shift
	if d-e.curDay >= int64(e.nb) {
		e.stats.misses++
		e.overflowPush(idx)
		return
	}
	s.heapPos = -1
	e.inBuckets++
	en := bucketEntry{at: s.at, seq: s.seq, idx: idx}
	b := d & e.mask
	if d == e.curDay && e.curSorted {
		e.buckets[b] = insertSorted(e.buckets[b], e.curHead, en)
		return
	}
	//lint:ignore hotalloc bucket slices keep their capacity across Reset; append is amortized-free once warm
	e.buckets[b] = append(e.buckets[b], en)
}

// insertSorted adds en to the sorted head bucket bk, whose live part starts
// at head, and returns the grown bucket.
//
//repo:hotpath per-event placement into the bucket being served
func insertSorted(bk []bucketEntry, head int, en bucketEntry) []bucketEntry {
	// Anything past the current tail appends, O(1) — the common case both for
	// ascending service-completion times and equal-timestamp storms. The full
	// key decides: a slot filed by refile carries a sequence number reserved
	// earlier, and may tie on time with entries scheduled since.
	if last := &bk[len(bk)-1]; en.at > last.at || (en.at == last.at && en.seq > last.seq) {
		//lint:ignore hotalloc bucket slices keep their capacity across Reset; append is amortized-free once warm
		return append(bk, en)
	}
	// Binary insert into the sorted tail, comparing inline keys.
	lo, hi := head, len(bk)
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
	return bk
}

// lift takes the live bucketed event idx out of its bucket so Reschedule can
// pull the slot in, and reports whether it did: a bucket of more than
// liftMax entries is left alone. An unsorted bucket loses the entry by
// swap-remove (its order is not yet meaningful); the sorted head bucket by
// shift-remove, searched from curHead on, because the popped prefix can still
// hold a stale copy of a slot index that has since been reused.
//
//repo:hotpath per-packet pacing-timer pull-in
func (e *Engine) lift(idx int32) bool {
	d := int64(e.slots[idx].at) >> e.shift
	b := d & e.mask
	bk := e.buckets[b]
	sorted := d == e.curDay && e.curSorted
	i := 0
	if sorted {
		i = e.curHead
	}
	if len(bk)-i > liftMax {
		return false
	}
	for bk[i].idx != idx {
		i++
	}
	last := len(bk) - 1
	if sorted {
		copy(bk[i:], bk[i+1:])
		e.stats.movedSorted++
	} else {
		bk[i] = bk[last]
		e.stats.movedUnsorted++
	}
	e.buckets[b] = bk[:last]
	if sorted && e.curHead == last {
		e.retireHead()
	}
	e.inBuckets--
	return true
}

// retireHead empties the head bucket once its last live entry is gone, so no
// popped index lingers for a later scan to resurface. curDay stays: the
// running callback may still schedule into this day.
func (e *Engine) retireHead() {
	b := e.curDay & e.mask
	e.buckets[b] = e.buckets[b][:0]
	e.curHead = 0
	e.curSorted = false
}

// overflow heap primitives; oSet keeps slots' heapPos in sync with every
// index move so Reschedule can relocate an entry in O(log n).

func (e *Engine) oSet(pos int, idx int32) {
	e.overflow[pos] = idx
	e.slots[idx].heapPos = int32(pos)
}

func (e *Engine) overflowPush(idx int32) {
	e.overflow = append(e.overflow, idx)
	e.overflowUp(len(e.overflow) - 1) // which also records the final heapPos
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

// heapify restores the heap order and every slot's heapPos after the overflow
// array was rewritten wholesale.
func (e *Engine) heapify() {
	for i, idx := range e.overflow {
		e.slots[idx].heapPos = int32(i)
	}
	for i := (len(e.overflow) - 2) >> 2; i >= 0; i-- {
		e.overflowDown(i)
	}
}

// migrate moves every overflow event whose day the year now covers into its
// bucket. It runs each time curDay moves; when nothing is due it costs the
// one comparison against the heap's minimum.
//
//repo:hotpath runs once per day the head advances
func (e *Engine) migrate() {
	for len(e.overflow) > 0 {
		idx := e.overflow[0]
		s := &e.slots[idx]
		if e.far(s.at) {
			return
		}
		e.overflowRemove(0)
		e.file(idx)
		e.stats.migrated++
	}
}

// file appends slot idx to the bucket of its day. It is for callers that know
// the day is within the year and that no bucket is sorted: migrate, which
// neither of its call sites reaches with a sorted head, and rebucket.
//
//repo:hotpath per migrated event
func (e *Engine) file(idx int32) {
	s := &e.slots[idx]
	s.heapPos = -1
	b := (int64(s.at) >> e.shift) & e.mask
	//lint:ignore hotalloc bucket slices keep their capacity across Reset; append is amortized-free once warm
	e.buckets[b] = append(e.buckets[b], bucketEntry{at: s.at, seq: s.seq, idx: idx})
	e.inBuckets++
}

// tune is the calendar's only tuning mechanism. Once per tunePeriod steps it
// looks at what the period dequeued and re-derives
//   - the day width: the power of two at or above twice the mean gap between
//     dequeues (simulated time swept / pops). It follows the rate at which
//     events leave, so a few timers parked far out cannot stretch it the way
//     a span-over-pending estimate would. A width within 2x of the target
//     either way is left alone;
//   - the bucket count: a power of two that tracks the pending count (regrown
//     past 2x it, cut back below 1/8 of it), doubled while more than 1/8 of a
//     period's inserts fall beyond the year, as long as that cannot trigger
//     the cut.
//
// Any change re-buckets every pending event, which the slack on both rules
// keeps rare.
func (e *Engine) tune() {
	// How far the calendar has swept: the clock, or the start of the current
	// day when the head has run ahead of it over empty buckets.
	pos := max(e.now, Time(e.curDay<<e.shift))
	empties := int64(e.stats.empties - e.tuneEmpties)
	misses := int64(e.stats.misses - e.tuneMisses)
	pops := int64(e.ticks) - empties
	// Dead time before a Run resumed, or a clock a stopped Run left ahead of
	// the queue, can put pos behind tuneAt or absurdly far past it.
	elapsed := min(max(pos-e.tuneAt, 0), 1<<maxShift)
	e.ticks = 0
	e.tuneAt = pos
	e.tuneEmpties = e.stats.empties
	e.tuneMisses = e.stats.misses

	shift := e.shift
	width := max(2*int64(elapsed)/max(pops, 1), 1)
	want := min(uint(bits.Len64(uint64(width)-1)), maxShift)
	switch {
	case want >= shift+2:
		shift = want
		e.stats.widen++
	case want+2 <= shift:
		shift = want
		e.stats.narrow++
	}

	n, nb := e.queued(), e.nb
	switch {
	case n > 2*nb && nb < maxBuckets:
		nb = bucketsFor(n)
		e.stats.grow++
	case n < nb/8 && nb > minBuckets:
		nb = bucketsFor(n)
		e.stats.shrink++
	case misses*8 > pops && nb <= 4*n && nb < maxBuckets:
		nb *= 2
		e.stats.missGrow++
	}
	if shift != e.shift || nb != e.nb {
		e.rebucket(shift, nb)
	}
}

// bucketsFor returns the bucket count for n pending events: the power of two
// at or above n, within [minBuckets, maxBuckets].
func bucketsFor(n int) int {
	n = min(max(n, minBuckets), maxBuckets)
	return 1 << bits.Len(uint(n-1))
}

// rebucket re-files every pending event, bucketed or in the overflow rung,
// under a new day width and bucket count, reclaiming the canceled ones on the
// way (with both unchanged it is the queue's compaction). The head keeps its
// place in time: the new curDay is the day holding the start of the old one,
// which no pending event precedes.
func (e *Engine) rebucket(shift uint, nb int) {
	e.scratch = e.scratch[:0]
	e.eachPending(func(idx int32) {
		if e.slots[idx].canceled {
			e.release(idx)
		} else {
			e.scratch = append(e.scratch, idx)
		}
	})
	e.canceled = 0
	e.clear()
	// Only ever grow the slice: re-slicing it down would drop the tail's
	// bucket slices, and a warm engine would allocate them all over again.
	for len(e.buckets) < nb {
		e.buckets = append(e.buckets, nil)
	}
	e.curDay = e.curDay << e.shift >> shift
	e.shift, e.nb, e.mask = shift, nb, int64(nb-1)
	for _, idx := range e.scratch {
		if e.far(e.slots[idx].at) {
			e.overflow = append(e.overflow, idx)
		} else {
			e.file(idx)
		}
	}
	e.heapify()
}

// clear empties every bucket and the overflow rung, keeping their capacity.
// The slots they pointed at are the caller's to release or re-file.
func (e *Engine) clear() {
	for bi := range e.buckets[:e.nb] {
		e.buckets[bi] = e.buckets[bi][:0]
	}
	e.overflow = e.overflow[:0]
	e.inBuckets = 0
	e.curSorted = false
	e.curHead = 0
}

// advance readies the earliest pending calendar event and reports whether
// there is one the head could reach without passing until's day. After it
// returns true the event is the head bucket's [curHead] with curSorted set
// (and may still be later than until). The head never advances past until's
// day: the clock is about to be left at until (by Run) or at a lane head no
// later than it (by step), and an event scheduled right after must not find
// the calendar ahead of it. step calls it only when the head bucket is not
// already sorted and being served, or when a look at the dequeue rate is due.
//
//repo:hotpath per-event dispatch: next-event selection
func (e *Engine) advance(until Time) bool {
	for {
		// Checked before anything else: a day far too wide for the traffic keeps
		// its bucket sorted and refilled for thousands of events, and the tuner
		// must not wait for it to run dry.
		if e.ticks >= tunePeriod {
			e.tune()
		}
		if e.curSorted {
			return true
		}
		if bk := e.buckets[e.curDay&e.mask]; len(bk) > 0 {
			e.sortBucket(bk)
			e.curSorted = true
			return true
		}
		if e.inBuckets == 0 {
			if len(e.overflow) == 0 {
				// If Step popped only canceled events the head is ahead of a
				// clock that never moved; an empty calendar may fall back.
				e.curDay = min(e.curDay, int64(e.now)>>e.shift)
				return false
			}
			// Nothing within the year: jump straight to the overflow rung's
			// earliest day instead of walking there bucket by bucket.
			at := e.slots[e.overflow[0]].at
			if at > until {
				return false
			}
			e.curDay = int64(at) >> e.shift
			e.migrate()
			continue
		}
		if e.curDay >= int64(until)>>e.shift {
			return false
		}
		e.curDay++
		e.ticks++
		e.stats.empties++
		e.migrate()
	}
}

// bucketEntry is one calendar-bucket element: the event's ordering key
// copied out of its slot next to the slot index, so sorting, binary inserts
// and scans compare contiguous memory without chasing slots. The slot stays
// the source of truth for execution; the copy is immutable while queued (a
// bucketed event's key never changes in place — a push-back leaves it alone
// and records the new key beside it, a pull-in lifts the entry out and files a
// new one, or lazily cancels), so the two cannot disagree.
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
	e.stats.sorts++
	e.stats.sorted += uint64(len(bk))
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
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.seq, b.seq))
	})
}

// popFirst removes the entry readied by advance, retiring the bucket at once
// when that was its last.
//
//repo:hotpath per-event dispatch: queue pop
func (e *Engine) popFirst() {
	e.curHead++
	e.inBuckets--
	e.ticks++
	if e.curHead == len(e.buckets[e.curDay&e.mask]) {
		e.retireHead()
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
// — but a live event keeps its slot and leaves no canceled entry behind.
//
// A push-back (at no earlier than where the event is filed — the RTO, pushed
// out on every send and every ACK and fired a handful of times per run) moves
// nothing at all: the new time, the sequence number and fn are recorded in
// the slot, and the event stays filed where it is. When that filing reaches
// the head, the engine moves the slot to the recorded key instead of running
// it, without advancing the clock or Executed. The recorded key (at, seq) is
// the very key an immediate move would have filed it under, and nothing
// before it in (at, seq) order can be missed, because the stale filing is
// never later than it; so the fire order is the immediate move's. However
// many push-backs land between two head visits, they cost one move.
//
// A pull-in (at earlier than the filing) cannot wait and is carried out on
// the spot: sifted or taken out of the overflow rung, or lifted out of its
// bucket and filed again (the pacing timer a few packets ahead); only from a
// bucket too long to scan (see liftMax) is it a lazy cancel and a fresh slot.
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
				return EventID{slot: id.slot, gen: s.gen}
			}
			pos := int(s.heapPos)
			if pos >= 0 || e.lift(id.slot) {
				e.stamp(s, at, fn, nil, nil)
				s.deferred = false
				s.nextGen()
				if pos >= 0 && e.far(at) { // stays in the overflow rung
					e.overflowUp(pos)
				} else {
					if pos >= 0 { // pulled back within the year
						e.overflowRemove(pos)
					}
					e.insert(id.slot)
				}
				return EventID{slot: id.slot, gen: s.gen}
			}
			// Lazy-cancel like Cancel would, then fall through to a fresh
			// schedule (which consumes the one seq).
			s.canceled = true
			e.canceled++
			e.stats.movedLazy++
		}
	}
	return e.schedule(at, fn, nil, nil)
}

// pushBack records in a live slot that its event now belongs at time at, not
// before where it is filed, under a sequence number consumed here, and makes
// ids handed out for the old occurrence stale. The queue is not touched.
//
//repo:hotpath per-send and per-ACK RTO push-back
func (e *Engine) pushBack(s *eventSlot, at Time, fn func(Time)) {
	s.wantAt, s.wantSeq, s.deferred = at, e.nextSeq, true
	e.nextSeq++
	s.fn, s.argFn, s.arg = fn, nil, nil
	s.nextGen()
	e.stats.deferred++
}

// refile files a slot the engine has just popped under the key recorded in
// it.
//
//repo:hotpath once per head visit of a pushed-back timer
func (e *Engine) refile(idx int32) {
	s := &e.slots[idx]
	s.at, s.seq, s.deferred = s.wantAt, s.wantSeq, false
	e.insert(idx)
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
	if e.canceled >= compactMin && e.canceled*2 >= e.queued() {
		e.rebucket(e.shift, e.nb) // re-filing drops the canceled entries
	}
}

// eachPending calls visit with the slot index of every queued event, live or
// canceled, in no particular order.
func (e *Engine) eachPending(visit func(idx int32)) {
	head := int(e.curDay & e.mask)
	for bi, bk := range e.buckets[:e.nb] {
		if bi == head && e.curSorted {
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
// engine's arguments must have one owner. Lane events are among them: their
// arguments are reclaimed too and the entries dropped at once (the lanes stay).
func (e *Engine) CancelArgs(reclaim func(arg any)) {
	e.emptyLanes(reclaim)
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
// while keeping the slot slab, free list, bucket, heap and lane-ring capacity
// for reuse. A pooled engine Reset between runs schedules with zero allocation
// from the first event on. Every lane is dropped with its entries and Lane
// handles go stale: who rides which lane is the next run's to decide, and a
// stale handle files on the calendar, so a forgotten one costs speed only. The calendar's day width and bucket count are
// kept too: the next run most likely resembles the last, and they decide only
// where an event waits, never when it fires (pop order is always (at, seq)),
// so reuse cannot change any run's observable behavior.
func (e *Engine) Reset() {
	if e.inCallback {
		panic("sim: Reset called from inside an event callback")
	}
	e.eachPending(e.release)
	e.clear()
	e.emptyLanes(nil)
	e.nLanes = 0
	e.laneEpoch++
	e.canceled = 0
	e.curDay = 0
	e.ticks = 0
	e.tuneAt = 0
	e.tuneEmpties = e.stats.empties
	e.tuneMisses = e.stats.misses
	e.now = 0
	e.stopped = false
	e.executed = 0
	e.nextSeq = 0
}

// execFirst pops the earliest calendar event (readied by advance) and runs it,
// reporting whether a live event executed: a canceled one is discarded, and a
// pushed-back one is only moved to where it is wanted. The slot is released
// before the callback runs — the event's own id is already stale inside the
// callback, and the free list, being LIFO, hands the callback's first Schedule
// this still-hot slot.
//
//repo:hotpath per-event dispatch of a calendar event
func (e *Engine) execFirst(idx int32) bool {
	e.popFirst()
	s := &e.slots[idx]
	if s.canceled {
		e.canceled--
		e.release(idx)
		return false
	}
	if s.deferred {
		e.stats.headVisits++
		e.refile(idx)
		return false
	}
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

// step runs the earliest pending event due by until, calendar head or lane
// head, whichever is smaller by (at, seq). The calendar is asked for its head
// only up to the earliest lane head: advance never moves the head past its
// horizon's day, so when the lane head runs and sets the clock, the calendar's
// head is not ahead of it and the callback can schedule at any time from now
// on. A calendar event later than that horizon loses to the lane head anyway.
//
//repo:hotpath per-event dispatch: the merge of the calendar and the lanes
func (e *Engine) step(until Time) stepped {
	lk := e.bestKey
	// The common case needs no call: the head bucket is sorted and being served.
	if (e.curSorted && e.ticks < tunePeriod) || e.advance(min(until, lk.at)) {
		// The head's key is inline in its bucket entry; the slot is not loaded
		// unless the event runs.
		en := &e.buckets[e.curDay&e.mask][e.curHead]
		if en.at < lk.at || (en.at == lk.at && en.seq < lk.seq) {
			switch {
			case en.at > until:
				return stepIdle
			case e.execFirst(en.idx):
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

// Run executes events in (time, sequence) order, calendar and lane events
// alike, until none is left or the next one lies beyond the `until` horizon,
// and leaves the clock at until; events scheduled after `until` remain queued.
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

// Step executes the single next event, calendar or lane, if any, and reports
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
