package sim

import (
	"fmt"
	"math"
)

// Lane is a handle to one of an engine's FIFO lanes: a queue for a stream of
// events that leaves in the order it was scheduled, and so needs no priority
// queue. Two kinds of stream have that property by construction: events
// scheduled a constant delay after the clock (propagation over a fixed
// distance: the clock never goes back, so their times never decrease), and
// events of which at most one is pending (a link's service completion).
// Because every event also takes the engine's next sequence number, such a
// stream is already sorted by the engine's key (at, seq).
//
// A lane changes where an event waits, never when it fires: the entry carries
// exactly the key Engine.ScheduleArg would have filed it under, and the engine
// executes whichever is smaller by (at, seq), the heap's root or the earliest
// lane head — a merge of sorted sequences under one total order. An event that
// would break the lane's order (earlier than the lane's newest entry) is filed
// on the heap under the same key instead, so a caller that gets monotonicity
// wrong loses speed, never order.
//
// Lane events cannot be canceled one by one: no EventID comes back.
// Engine.CancelArgs takes them all back, and Engine.Reset drops them along
// with the lanes themselves: a handle from before the Reset is stale the way
// an EventID or a Timer is, and files on the heap. The zero Lane belongs to no
// engine and must not be scheduled on.
type Lane struct {
	e     *Engine
	epoch uint32
	idx   int32 // index into e.lanes; -1 for a handle refused at the cap
}

// maxLanes is how many lanes one engine hands out; NewLane beyond it returns a
// handle that files on the heap, where every event costs a sift. The pick of
// the next lane head scans only the lanes handed out, so the cap costs a world
// with a handful of delay classes nothing.
const maxLanes = 32

// laneEntry is one queued lane event under the key ScheduleArg would have
// given it.
type laneEntry struct {
	at  Time
	seq uint64
	fn  func(now Time, arg any)
	arg any
}

// lane is one FIFO ring. len(buf) is zero or a power of two; the n queued
// entries start at buf[head] and are sorted ascending by (at, seq). It is not
// a ring.Ring: the dispatch path reads and clears entries in place through a
// pointer (an entry is five words, and Pop would copy it out and zero it
// whole), and CancelArgs walks the ring.
type lane struct {
	buf    []laneEntry
	head   int
	n      int
	lastAt Time // time of the newest entry, meaningful while n > 0
}

// laneKey is a lane head's ordering key, copied out of the ring so the pick
// of the best lane reads contiguous memory.
type laneKey struct {
	at  Time
	seq uint64
}

// noHead is the key of an empty lane: it sorts after every real event (no
// event ever holds sequence number MaxUint64).
var noHead = laneKey{at: MaxTime, seq: math.MaxUint64}

func (k laneKey) less(o laneKey) bool {
	return k.at < o.at || (k.at == o.at && k.seq < o.seq)
}

// NewLane returns a handle to a fresh, empty lane, or — once the engine has
// handed out maxLanes of them since its last Reset — a handle whose events all
// file on the heap.
func (e *Engine) NewLane() Lane {
	if e.nLanes == maxLanes {
		e.stats.laneRefused++
		return Lane{e: e, epoch: e.laneEpoch, idx: -1}
	}
	e.nLanes++
	return Lane{e: e, epoch: e.laneEpoch, idx: int32(e.nLanes - 1)}
}

// Live reports whether the handle was issued by its engine since the engine's
// last Reset. A handle that is not live still schedules correctly, on the
// heap; its owner should take a new one.
func (l Lane) Live() bool { return l.e != nil && l.epoch == l.e.laneEpoch }

// ScheduleArg registers fn to run at the absolute simulated time at with arg,
// like Engine.ScheduleArg — same checks, same sequence number consumed at the
// same point, same place in the fire order — but the event waits in the lane
// when at is no earlier than the lane's newest entry, and on the heap
// otherwise (or when the handle is stale or was refused).
//
//repo:hotpath per-packet propagation and link-service scheduling
func (l Lane) ScheduleArg(at Time, fn func(now Time, arg any), arg any) {
	e := l.e
	if fn == nil {
		panic("sim: Lane.ScheduleArg called with nil callback")
	}
	if at < e.now {
		//lint:ignore hotalloc panic-path formatting; a causality violation aborts the run
		panic(fmt.Sprintf("sim: Schedule in the past: at=%v now=%v", at, e.now))
	}
	if l.epoch != e.laneEpoch || l.idx < 0 {
		e.schedule(at, nil, fn, arg)
		return
	}
	ln := &e.lanes[l.idx]
	if ln.n > 0 && at < ln.lastAt {
		e.stats.laneFallbacks++
		e.schedule(at, nil, fn, arg)
		return
	}
	if ln.n == len(ln.buf) {
		ln.grow()
	}
	en := &ln.buf[(ln.head+ln.n)&(len(ln.buf)-1)]
	en.at, en.seq, en.fn, en.arg = at, e.nextSeq, fn, arg
	ln.lastAt = at
	ln.n++
	e.inLanes++
	e.stats.laned++
	if ln.n == 1 {
		// The only push that changes a head: the lane's first entry.
		k := laneKey{at: at, seq: e.nextSeq}
		e.heads[l.idx] = k
		if k.less(e.bestKey) {
			e.best, e.bestKey = int(l.idx), k
		}
	}
	e.nextSeq++
}

// grow doubles the ring, unrolling it to start at index 0. Rings keep their
// capacity across Reset, so a warm engine never gets here.
func (ln *lane) grow() {
	buf := make([]laneEntry, max(2*len(ln.buf), 16))
	k := copy(buf, ln.buf[ln.head:])
	copy(buf[k:], ln.buf[:ln.head])
	ln.buf, ln.head = buf, 0
}

// execLane pops the best lane's head and runs it. The caller has established
// that it is the earliest pending event and is due.
//
//repo:hotpath per-event dispatch of a lane event
func (e *Engine) execLane() {
	b := e.best
	ln := &e.lanes[b]
	en := &ln.buf[ln.head]
	at, fn, arg := en.at, en.fn, en.arg
	en.arg = nil // the ring must not keep the argument alive past its event
	ln.head = (ln.head + 1) & (len(ln.buf) - 1)
	ln.n--
	e.inLanes--
	if ln.n > 0 {
		h := &ln.buf[ln.head]
		e.heads[b] = laneKey{at: h.at, seq: h.seq}
	} else {
		e.heads[b] = noHead
	}
	e.pickLane()
	e.now = at
	e.executed++
	e.inCallback = true
	fn(at, arg)
	e.inCallback = false
}

// pickLane re-derives the best lane from the head keys. It runs only when a
// lane pops; a push behind a head changes no head, and an empty lane's first
// entry is compared against the best on the spot.
//
//repo:hotpath once per lane pop
func (e *Engine) pickLane() {
	best, key := -1, noHead
	for i := range e.heads[:e.nLanes] {
		if k := e.heads[i]; k.less(key) {
			best, key = i, k
		}
	}
	e.best, e.bestKey = best, key
}

// emptyLanes drops every lane entry, handing each one's argument to reclaim
// when that is non-nil. The lanes themselves stay, with their rings' capacity.
func (e *Engine) emptyLanes(reclaim func(arg any)) {
	for i := range e.lanes[:e.nLanes] {
		ln := &e.lanes[i]
		for ; ln.n > 0; ln.n-- {
			en := &ln.buf[ln.head]
			if reclaim != nil {
				reclaim(en.arg)
			}
			*en = laneEntry{}
			ln.head = (ln.head + 1) & (len(ln.buf) - 1)
		}
		ln.head = 0
		e.heads[i] = noHead
	}
	e.inLanes = 0
	e.best, e.bestKey = -1, noHead
}
