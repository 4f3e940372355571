package sim

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"
)

// This file is the differential harness between the production Engine (a timer
// heap beside FIFO lanes) and the reference refEngine (reference_test.go: one
// heap, no lanes, plain Cancel+Schedule). Both
// expose the identical queue contract, so a byte-decoded op program —
// schedules at equal timestamps, cancel storms that force slot reuse,
// reschedules, timers pushed back op after op, events riding lanes (which the
// reference files like any other), resets, bounded and stopped runs, events at
// MaxTime — must produce byte-identical execution traces on both. FuzzEngineVsReference explores the op space;
// TestEngineVsReferenceQuick covers it with testing/quick on every plain
// `go test` (including the -race CI job, which also replays the fuzz seed
// corpus through the fuzz target).

// queueEngine is the surface shared by Engine and refEngine that the
// differential driver exercises.
type queueEngine interface {
	Now() Time
	Pending() int
	Executed() uint64
	Schedule(at Time, fn func(now Time)) EventID
	ScheduleArg(at Time, fn func(now Time, arg any), arg any) EventID
	ScheduleAfter(delay Time, fn func(now Time)) EventID
	Reschedule(id EventID, at Time, fn func(now Time)) EventID
	Cancel(id EventID)
	CancelArgs(reclaim func(arg any))
	Run(until Time)
	Step() bool
	Stop()
	Reset()
}

var (
	_ queueEngine = (*Engine)(nil)
	_ queueEngine = (*refEngine)(nil)
)

// checkLanes verifies the lane invariants documented on Engine: every lane
// sorted by (at, seq), the head keys and the cached best lane true, the entry
// count right and nothing left in a lane that was not handed out. It is
// O(lane entries), cheap enough to run from inside lane callbacks.
func (e *Engine) checkLanes() error {
	laned := 0
	best, bestKey := -1, noHead
	for i := range e.lanes {
		ln := &e.lanes[i]
		if len(ln.buf)&(len(ln.buf)-1) != 0 || ln.n < 0 || ln.n > len(ln.buf) {
			return fmt.Errorf("lane %d: ring of %d holds %d entries", i, len(ln.buf), ln.n)
		}
		if i >= e.nLanes && ln.n != 0 {
			return fmt.Errorf("lane %d was not handed out (nLanes=%d) and holds %d entries", i, e.nLanes, ln.n)
		}
		head := noHead
		var prev laneKey
		for j := 0; j < ln.n; j++ {
			en := &ln.buf[(ln.head+j)&(len(ln.buf)-1)]
			k := laneKey{at: en.at, seq: en.seq}
			switch {
			case en.fn == nil:
				return fmt.Errorf("lane %d entry %d has no callback", i, j)
			case en.at < e.now || en.seq >= e.nextSeq:
				return fmt.Errorf("lane %d entry %d keyed (%d,%d) with the clock at %d and nextSeq %d", i, j, en.at, en.seq, e.now, e.nextSeq)
			case j == 0:
				head = k
			case !prev.less(k):
				return fmt.Errorf("lane %d out of order at entry %d: (%d,%d) after (%d,%d)", i, j, k.at, k.seq, prev.at, prev.seq)
			}
			prev = k
		}
		if ln.n > 0 && ln.lastAt != prev.at {
			return fmt.Errorf("lane %d: lastAt=%d, newest entry is at %d", i, ln.lastAt, prev.at)
		}
		if e.heads[i] != head {
			return fmt.Errorf("lane %d: cached head key %+v, ring says %+v", i, e.heads[i], head)
		}
		if head.less(bestKey) {
			best, bestKey = i, head
		}
		laned += ln.n
	}
	if laned != e.inLanes || e.Pending() != len(e.heap)+laned {
		return fmt.Errorf("laned=%d Pending=%d, lanes hold %d and the heap %d", e.inLanes, e.Pending(), laned, len(e.heap))
	}
	if e.best != best || e.bestKey != bestKey {
		return fmt.Errorf("best lane cached as %d %+v, the smallest head is %d %+v", e.best, e.bestKey, best, bestKey)
	}
	return nil
}

// checkInvariants verifies the heap and lane invariants documented on Engine,
// plus the bookkeeping the rest of the engine relies on (canceled, heapPos, the
// inline keys, the free list). It is O(pending), for tests only.
func (e *Engine) checkInvariants() error {
	if err := e.checkLanes(); err != nil {
		return err
	}
	queued := make([]bool, len(e.slots))
	canceled := 0
	for i, en := range e.heap {
		s := &e.slots[en.idx]
		switch {
		case queued[en.idx]:
			return fmt.Errorf("heap[%d]: slot %d queued twice", i, en.idx)
		case int(s.heapPos) != i:
			return fmt.Errorf("heap[%d]: slot %d has heapPos %d", i, en.idx, s.heapPos)
		case s.at != en.at || s.seq != en.seq:
			return fmt.Errorf("heap[%d]: inline key (%d,%d) != slot %d's (%d,%d)", i, en.at, en.seq, en.idx, s.at, s.seq)
		case en.at < e.now || en.seq >= e.nextSeq:
			return fmt.Errorf("heap[%d] keyed (%d,%d) with the clock at %d and nextSeq %d", i, en.at, en.seq, e.now, e.nextSeq)
		case i > 0 && en.less(e.heap[(i-1)>>2]):
			return fmt.Errorf("heap[%d] sorts before its parent", i)
		// A deferred slot is filed under (at, seq) and wanted no earlier.
		case s.deferred && (s.wantAt < s.at || s.wantSeq <= s.seq):
			return fmt.Errorf("heap[%d]: slot %d filed at (%d,%d) is wanted earlier, at (%d,%d)", i, en.idx, s.at, s.seq, s.wantAt, s.wantSeq)
		}
		queued[en.idx] = true
		if s.canceled {
			canceled++
		}
	}
	if canceled != e.canceled {
		return fmt.Errorf("canceled=%d, heap holds %d canceled entries", e.canceled, canceled)
	}
	for _, idx := range e.free {
		if s := &e.slots[idx]; queued[idx] || s.canceled || s.deferred || s.heapPos != -1 {
			return fmt.Errorf("free slot %d: queued=%v canceled=%v deferred=%v heapPos=%d", idx, queued[idx], s.canceled, s.deferred, s.heapPos)
		}
	}
	return nil
}

// diffFire is one trace entry: which logical event fired and at what clock.
type diffFire struct {
	seq int
	at  Time
}

// diffSide is one engine under differential test plus its driver-side state.
// Each side owns its ids, closures and child-event counter so callbacks never
// share mutable state across implementations.
type diffSide struct {
	e        queueEngine
	ids      []EventID
	trace    []diffFire
	childSeq int
	// timers are long-lived re-armable events, each with one fixed callback —
	// sim.Timer spelled out over the shared interface (Timer itself is bound
	// to *Engine).
	timers  [diffTimers]EventID
	timerFn [diffTimers]func(Time)
	// lanes are taken on first use (nil until then) and again after the driver
	// forgets the handles, so the production side meets its cap at the
	// maxLanes+1st taken since a Reset; for the reference a lane is a plain
	// ScheduleArg. reclaimed collects the labels CancelArgs handed back.
	newLane   func() diffLane
	lanes     [diffLanes]diffLane
	packetFn  func(Time, any)
	reclaimed []int
	// inCallback, when set, checks the engine's lane invariants from inside a
	// lane callback; the first failure is kept in err.
	inCallback func() error
	err        error
}

// diffLane is a lane as the driver sees it: Engine's Lane, or refLane.
type diffLane interface {
	ScheduleArg(at Time, fn func(now Time, arg any), arg any)
}

// refLane is the reference semantics of a Lane: the engine's own ScheduleArg.
type refLane struct{ e *refEngine }

func (l refLane) ScheduleArg(at Time, fn func(now Time, arg any), arg any) {
	l.e.ScheduleArg(at, fn, arg)
}

// diffPacket is the argument of every lane event the driver pushes: its trace
// label, and for the propagation pattern the lane it rides and how many more
// lanes it crosses after this one.
type diffPacket struct {
	label, lane, hops int
}

// diffTimers is how many timers each side owns; their trace labels start at
// diffTimerSeq, clear of both op and child sequence numbers.
const (
	diffTimers   = 12
	diffTimerSeq = 1 << 29
	// diffLanes is how many lane handles each side holds at a time. It is part
	// of how op bytes decode, so it does not follow maxLanes: a program reaches
	// the cap by forgetting its handles (op 15, mode 3) and taking new ones.
	diffLanes = 10
)

// diffLaneDelays is each lane's nominal delay for the propagation pattern:
// zero, microseconds, the dumbbell's 75 ms, a third of a second, and two lanes
// sharing one delay.
var diffLaneDelays = [diffLanes]Time{0, 1, 7, 150, 150, 1000, 75_000, 300_000, 40, 5}

func newDiffSide(e queueEngine) *diffSide {
	s := &diffSide{e: e, childSeq: 1 << 30}
	for k := range s.timerFn {
		s.timerFn[k] = func(now Time) {
			s.trace = append(s.trace, diffFire{seq: diffTimerSeq + k, at: now})
		}
	}
	switch e := e.(type) {
	case *Engine:
		s.newLane = func() diffLane { return e.NewLane() }
		calls := 0
		s.inCallback = func() error {
			if calls++; e.inLanes >= 256 && calls%64 != 0 {
				return nil
			}
			return e.checkLanes()
		}
	case *refEngine:
		s.newLane = func() diffLane { return refLane{e} }
	}
	s.packetFn = s.onPacket
	return s
}

// lane returns the side's lane k, taking it on first use.
func (s *diffSide) lane(k int) diffLane {
	if s.lanes[k] == nil {
		s.lanes[k] = s.newLane()
	}
	return s.lanes[k]
}

// fired traces a lane event and, on the production side, walks the engine's
// lanes from inside the callback.
func (s *diffSide) fired(label int, now Time) {
	s.trace = append(s.trace, diffFire{seq: label, at: now})
	if s.inCallback != nil && s.err == nil {
		s.err = s.inCallback()
	}
}

// child draws the next child label. Child labels come from a per-side counter
// far above the driver's op seqs; the counters advance in fire order, which is
// identical on both sides whenever the engines agree.
func (s *diffSide) child() int {
	s.childSeq++
	return s.childSeq - 1
}

// spawn schedules a fresh traced child event from inside a callback.
func (s *diffSide) spawn(at Time) {
	child := s.child()
	s.e.Schedule(at, func(now Time) {
		s.trace = append(s.trace, diffFire{seq: child, at: now})
	})
}

// sendPacket pushes a packet onto lane k its nominal delay ahead: the
// constant-delay stream lanes exist for.
func (s *diffSide) sendPacket(k, label, hops int) {
	s.lane(k).ScheduleArg(satAdd(s.e.Now(), diffLaneDelays[k]), s.packetFn, diffPacket{label: label, lane: k, hops: hops})
}

// onPacket fires a packet and forwards it over the next lane while it has
// hops left, so lanes are pushed from inside lane callbacks and their heads
// interleave.
func (s *diffSide) onPacket(now Time, arg any) {
	p := arg.(diffPacket)
	s.fired(p.label, now)
	if p.hops > 0 {
		s.sendPacket((p.lane+1)%diffLanes, s.child(), p.hops-1)
	}
}

// reclaim is the side's CancelArgs callback.
func (s *diffSide) reclaim(arg any) {
	s.reclaimed = append(s.reclaimed, arg.(diffPacket).label)
}

// pushTimer re-arms timer k at the given time, exactly as Timer.Schedule does.
func (s *diffSide) pushTimer(k int, at Time) {
	s.timers[k] = s.e.Reschedule(s.timers[k], at, s.timerFn[k])
}

// satAdd is now+d saturated at MaxTime: once a Step has fired an event at
// MaxTime the clock sits there, and every later offset must stay there too.
func satAdd(now, d Time) Time {
	if d > MaxTime-now {
		return MaxTime
	}
	return now + d
}

// sidesAgree reports the first observable difference between the two sides'
// clocks and counts; with walk set it also walks the production engine's
// invariants, which is O(pending). Pending is compared net of canceled
// entries: how many of those are still queued is each implementation's own
// business (the reference leaves one per Reschedule, the engine almost none).
func sidesAgree(prod, ref *diffSide, walk bool) error {
	if prod.e.Now() != ref.e.Now() {
		return fmt.Errorf("Now diverged: engine %d, reference %d", prod.e.Now(), ref.e.Now())
	}
	if prod.e.Executed() != ref.e.Executed() {
		return fmt.Errorf("Executed diverged: engine %d, reference %d", prod.e.Executed(), ref.e.Executed())
	}
	p, r := prod.e.(*Engine), ref.e.(*refEngine)
	if live, want := p.Pending()-p.canceled, r.Pending()-r.canceled; live != want {
		return fmt.Errorf("live Pending diverged: engine %d, reference %d", live, want)
	}
	if prod.err != nil {
		return fmt.Errorf("inside a lane callback: %w", prod.err)
	}
	if walk {
		return p.checkInvariants()
	}
	return nil
}

// tracesAgree reports the first difference between the two sides' traces.
func tracesAgree(prod, ref *diffSide) error {
	if len(prod.trace) != len(ref.trace) {
		return fmt.Errorf("trace lengths diverged: engine %d, reference %d", len(prod.trace), len(ref.trace))
	}
	for i := range prod.trace {
		if prod.trace[i] != ref.trace[i] {
			return fmt.Errorf("trace diverged at %d: engine %+v, reference %+v", i, prod.trace[i], ref.trace[i])
		}
	}
	return nil
}

// reclaimedAgree checks that CancelArgs handed both sides the same arguments,
// each exactly once (the order is the implementation's own).
func reclaimedAgree(prod, ref *diffSide) error {
	a, b := slices.Clone(prod.reclaimed), slices.Clone(ref.reclaimed)
	slices.Sort(a)
	slices.Sort(b)
	if !slices.Equal(a, b) {
		return fmt.Errorf("CancelArgs reclaimed %d arguments on the engine, %d on the reference, or not the same ones", len(a), len(b))
	}
	if len(slices.Compact(a)) != len(b) {
		return fmt.Errorf("CancelArgs reclaimed an argument twice")
	}
	return nil
}

// scheduleTraced registers a plain event that appends to the side's trace.
func (s *diffSide) scheduleTraced(at Time, seq int) {
	s.ids = append(s.ids, s.e.Schedule(at, func(now Time) {
		s.trace = append(s.trace, diffFire{seq: seq, at: now})
	}))
}

// scheduleStop registers an event that halts the current Run after tracing.
func (s *diffSide) scheduleStop(at Time, seq int) {
	s.ids = append(s.ids, s.e.Schedule(at, func(now Time) {
		s.trace = append(s.trace, diffFire{seq: seq, at: now})
		s.e.Stop()
	}))
}

// scheduleLaneChain pushes onto lane k an event that pushes itself again
// times-1 more times at the given period — the link-service pattern: one lane,
// at most one entry of the chain pending.
func (s *diffSide) scheduleLaneChain(k int, at, period Time, seq, times int) {
	n := times
	var fire func(now Time, arg any)
	fire = func(now Time, arg any) {
		s.fired(seq, now)
		n--
		if n > 0 {
			s.lane(k).ScheduleArg(satAdd(now, period), fire, arg)
		}
	}
	s.lane(k).ScheduleArg(at, fire, diffPacket{label: seq})
}

// scheduleLaneTie registers an event that, times-1 more times, files three
// events on one instant gap ahead: a heap event, then an entry on lane k,
// then another heap event. The lane entry waits in another structure than
// the two around it, and must still fire between them.
func (s *diffSide) scheduleLaneTie(k int, at, gap Time, seq, times int) {
	n := times
	var fire func(now Time, arg any)
	fire = func(now Time, arg any) {
		s.fired(seq, now)
		n--
		if n <= 0 {
			return
		}
		t := satAdd(now, gap)
		s.spawn(t)
		s.lane(k).ScheduleArg(t, fire, arg)
		s.spawn(t)
	}
	s.ids = append(s.ids, s.e.Schedule(at, func(now Time) { fire(now, diffPacket{label: seq}) }))
}

// scheduleLaneStop pushes onto lane k an event that halts the current Run.
func (s *diffSide) scheduleLaneStop(k int, at Time, seq int) {
	s.lane(k).ScheduleArg(at, func(now Time, _ any) {
		s.fired(seq, now)
		s.e.Stop()
	}, diffPacket{label: seq})
}

// scheduleSpawner registers an event that schedules a fresh child event from
// inside its callback (the in-callback Schedule path).
func (s *diffSide) scheduleSpawner(at, childDelay Time, seq int) {
	s.ids = append(s.ids, s.e.Schedule(at, func(now Time) {
		s.trace = append(s.trace, diffFire{seq: seq, at: now})
		s.spawn(satAdd(now, childDelay))
	}))
}

// runEngineDiff decodes data as an op program, applies it in lockstep to the
// Engine and the reference engine, and reports the first divergence. fatalf is t.Errorf in tests so quick.Check can shrink, and a
// t.Fatalf-alike under the fuzzer.
func runEngineDiff(t *testing.T, data []byte) bool {
	t.Helper()
	prod := newDiffSide(NewEngine())
	ref := newDiffSide(newRefEngine())
	sides := [2]*diffSide{prod, ref}
	nextSeq := 0

	// The invariant walk is O(pending); on the long programs the fuzzer grows,
	// look at a big queue only every 64th op (op is a byte offset, 3 per op).
	// The clock must never go back between two ops, Reset aside.
	var lastNow Time
	check := func(op int, what string) bool {
		err := sidesAgree(prod, ref, prod.e.Pending() < 2048 || op%(3*64) == 0)
		if now := prod.e.Now(); err == nil && now < lastNow && what != "reset" {
			err = fmt.Errorf("the clock went back from %d to %d", lastNow, now)
		}
		if err != nil {
			t.Errorf("op %d (%s): %v", op, what, err)
			return false
		}
		lastNow = prod.e.Now()
		return true
	}

	// Ops 0-12 keep the bytes they had when 7 and 11 drove Engine.Rearm, so the
	// committed corpus (which uses no other) decodes as it always did.
	for i := 0; i+2 < len(data); i += 3 {
		op := int(data[i]) % 16
		payload := Time(data[i+1])<<8 | Time(data[i+2])
		what := ""
		switch op {
		case 0: // near-future schedule
			what = "schedule"
			seq := nextSeq
			nextSeq++
			for _, s := range sides {
				s.scheduleTraced(satAdd(s.e.Now(), payload%5000), seq)
			}
		case 1: // equal-timestamp burst: FIFO tiebreak on (at, seq)
			what = "equal-time burst"
			at := satAdd(prod.e.Now(), payload%2000)
			k := int(payload%7) + 2
			for j := 0; j < k; j++ {
				seq := nextSeq
				nextSeq++
				for _, s := range sides {
					s.scheduleTraced(at, seq)
				}
			}
		case 2: // far-future schedule: sinks to the bottom of the heap
			what = "far schedule"
			seq := nextSeq
			nextSeq++
			at := satAdd(prod.e.Now(), 1_000_000+payload)
			switch payload % 16 {
			case 13: // tens of simulated years out
				at = satAdd(prod.e.Now(), payload<<46)
			case 14:
				at = max(MaxTime-payload, prod.e.Now())
			case 15: // the documented "never" sentinel
				at = MaxTime
			}
			for _, s := range sides {
				s.scheduleTraced(at, seq)
			}
		case 3: // stop event
			what = "stop schedule"
			seq := nextSeq
			nextSeq++
			for _, s := range sides {
				s.scheduleStop(satAdd(s.e.Now(), payload%5000), seq)
			}
		case 4: // cancel an arbitrary id, live, fired or already canceled
			what = "cancel"
			if len(prod.ids) > 0 {
				k := int(payload) % len(prod.ids)
				for _, s := range sides {
					s.e.Cancel(s.ids[k])
				}
			}
		case 5: // cancel storm: slot reuse and compaction pressure
			what = "cancel storm"
			for j := Time(0); j < 80; j++ {
				seq := nextSeq
				nextSeq++
				at := satAdd(prod.e.Now(), 50_000+j)
				for _, s := range sides {
					s.scheduleTraced(at, seq)
					s.e.Cancel(s.ids[len(s.ids)-1])
				}
			}
		case 6: // reschedule an arbitrary id to a new time
			what = "reschedule"
			seq := nextSeq
			nextSeq++
			at := satAdd(prod.e.Now(), payload%5000)
			if len(prod.ids) > 0 {
				k := int(payload) % len(prod.ids)
				for _, s := range sides {
					s.ids[k] = s.e.Reschedule(s.ids[k], at, func(now Time) {
						s.trace = append(s.trace, diffFire{seq: seq, at: now})
					})
				}
			} else {
				for _, s := range sides {
					s.scheduleTraced(at, seq)
				}
			}
		case 7: // self-rescheduling lane event (link service) and an in-callback spawner
			what = "lane chain+spawn"
			seq := nextSeq
			nextSeq += 2
			times := int(payload%5) + 1
			period := payload%900 + 1
			at := satAdd(prod.e.Now(), payload%3000)
			for _, s := range sides {
				s.scheduleLaneChain(int(payload%diffLanes), at, period, seq, times)
				s.scheduleSpawner(satAdd(at, 1), period, seq+1)
			}
		case 8: // single step
			what = "step"
			if prod.e.Step() != ref.e.Step() {
				t.Errorf("op %d: Step return diverged", i)
				return false
			}
		case 9:
			if payload%11 == 0 { // reset: drop everything, ids go stale
				what = "reset"
				for _, s := range sides {
					s.e.Reset()
					s.ids = s.ids[:0]
					// Every other reset the lane handles are kept, stale.
					if payload/11%2 == 0 {
						s.lanes = [diffLanes]diffLane{}
					}
				}
			} else { // bounded run
				what = "run"
				until := satAdd(prod.e.Now(), payload%20_000)
				for _, s := range sides {
					s.e.Run(until)
				}
			}
		case 10: // timer push-back: the same timer re-armed across ops
			what = "timer push-back"
			k := int(payload % diffTimers)
			var delay Time
			switch (payload / diffTimers) % 4 {
			case 0: // the pacing pattern: a few packets ahead, often the heap's root
				delay = payload % 64
			case 1:
				delay = payload % 5000
			case 2: // the RTO pattern: parked far out
				delay = 200_000 + payload*16
			case 3: // onto one shared instant: equal-timestamp pile-ups
				delay = 1000 - prod.e.Now()%1000
			}
			for _, s := range sides {
				s.pushTimer(k, satAdd(s.e.Now(), delay))
			}
		case 11: // a lane entry between two heap events on its instant
			what = "lane entry tied with heap events"
			seq := nextSeq
			nextSeq++
			gap := [...]Time{0, 0, 1, 5, 40, 300}[payload%6]
			at := satAdd(prod.e.Now(), payload%700)
			for _, s := range sides {
				s.scheduleLaneTie(int(payload/6%diffLanes), at, gap, seq, int(payload%4)+2)
				// Company on the first instant, so the heap's root ties with that
				// event's instant while its callback runs.
				s.scheduleTraced(at, seq)
			}
		case 12: // a timer pushed back, and what can happen before its old filing is reached
			what = "deferred push-back"
			k := int(payload % diffTimers)
			d := (payload/diffTimers)%500 + 1
			if payload%3 == 0 { // parked far out
				d += 300_000
			}
			now := prod.e.Now()
			for _, s := range sides {
				s.pushTimer(k, satAdd(now, d))
				s.pushTimer(k, satAdd(now, 3*d)) // recorded, not moved
				switch (payload / 7) % 5 {
				case 0: // again, before the filing at now+d is reached
					s.pushTimer(k, satAdd(now, 3*d))
					s.pushTimer(k, satAdd(now, 4*d))
				case 1: // pulled in ahead of the filing
					s.pushTimer(k, satAdd(now, d/2))
				case 2: // Timer.Stop
					s.e.Cancel(s.timers[k])
				case 3: // the filing falls due, the timer does not
					s.e.Run(satAdd(now, 2*d))
				case 4: // between the filing and the wanted time
					s.pushTimer(k, satAdd(now, 2*d))
				}
			}
		case 13: // packets a constant delay ahead, forwarded from lane to lane
			what = "lane packets"
			k := int(payload % diffLanes)
			hops := int(payload / diffLanes % 3)
			for j := payload / (3 * diffLanes) % 4; j >= 0; j-- {
				seq := nextSeq
				nextSeq++
				for _, s := range sides {
					s.sendPacket(k, seq, hops)
				}
			}
		case 14: // a lane push at any delay: most break the lane's order and fall back
			what = "lane push, any delay"
			seq := nextSeq
			nextSeq++
			at := satAdd(prod.e.Now(), payload/diffLanes%5000)
			if payload%16 == 15 {
				at = MaxTime
			}
			for _, s := range sides {
				s.lane(int(payload%diffLanes)).ScheduleArg(at, s.packetFn, diffPacket{label: seq})
			}
		case 15:
			k := int(payload / 4 % diffLanes)
			switch payload % 4 {
			case 0: // every ScheduleArg event, lane or heap, taken back
				what = "cancel args"
				for _, s := range sides {
					s.e.CancelArgs(s.reclaim)
				}
				if err := reclaimedAgree(prod, ref); err != nil {
					t.Errorf("op %d (%s): %v", i, what, err)
					return false
				}
			case 1:
				what = "lane stop"
				seq := nextSeq
				nextSeq++
				for _, s := range sides {
					s.scheduleLaneStop(k, satAdd(s.e.Now(), payload/64%5000), seq)
				}
			case 2: // Run ends between a lane event and a heap event; then both are undercut
				what = "horizon between lane and heap"
				seq := nextSeq
				nextSeq += 4
				now := prod.e.Now()
				a, b := 10+payload/64%90, 10+payload/64/90%90
				for _, s := range sides {
					s.lane(k).ScheduleArg(satAdd(now, a), s.packetFn, diffPacket{label: seq})
					s.scheduleTraced(satAdd(now, b), seq+1)
					s.e.Run(satAdd(now, (a+b)/2))
					s.lane(k).ScheduleArg(s.e.Now(), s.packetFn, diffPacket{label: seq + 2})
					s.scheduleTraced(s.e.Now(), seq+3)
				}
			case 3: // the handles are forgotten: the next pushes take new lanes, up to the cap
				what = "new lanes"
				for _, s := range sides {
					s.lanes = [diffLanes]diffLane{}
				}
			}
		}
		if !check(i, what) {
			return false
		}
	}

	// Drain both queues completely; Stop events can end a Run early.
	for prod.e.Pending() > 0 || ref.e.Pending() > 0 {
		prod.e.Run(MaxTime)
		ref.e.Run(MaxTime)
		if !check(len(data), "drain") {
			return false
		}
	}

	if err := tracesAgree(prod, ref); err != nil {
		t.Error(err)
		return false
	}
	if err := reclaimedAgree(prod, ref); err != nil {
		t.Error(err)
		return false
	}
	return true
}

// engineDiffSeeds are the hand-written fuzz seeds: each encodes a program
// that hits a queue edge the heap and the lanes must get right.
func engineDiffSeeds() [][]byte {
	ops := func(triples ...[3]byte) []byte {
		var out []byte
		for _, t := range triples {
			out = append(out, t[0], t[1], t[2])
		}
		return out
	}
	seeds := [][]byte{
		// Equal-timestamp storm then run: FIFO on one instant.
		ops([3]byte{1, 0, 100}, [3]byte{1, 0, 100}, [3]byte{9, 1, 0}),
		// Cancel storm forcing slot reuse, then fresh schedules on reused slots.
		ops([3]byte{5, 0, 0}, [3]byte{0, 0, 50}, [3]byte{5, 0, 0}, [3]byte{9, 3, 0}),
		// Far-future events mixed with near ones, partial run.
		ops([3]byte{2, 10, 0}, [3]byte{0, 0, 10}, [3]byte{9, 0, 99}, [3]byte{2, 0, 1}, [3]byte{9, 255, 255}),
		// Reschedule churn across near and far events.
		ops([3]byte{0, 1, 0}, [3]byte{2, 0, 0}, [3]byte{6, 0, 7}, [3]byte{6, 0, 3}, [3]byte{9, 4, 1}),
		// Lane chains (link-service pattern) interleaved with stop events.
		ops([3]byte{7, 2, 200}, [3]byte{3, 0, 30}, [3]byte{9, 8, 8}, [3]byte{7, 1, 9}),
		// Reset mid-stream, then rebuild from empty.
		ops([3]byte{0, 0, 5}, [3]byte{9, 0, 0}, [3]byte{0, 0, 5}, [3]byte{1, 0, 1}, [3]byte{9, 0, 77}),
		// Step-by-step execution with interleaved cancels.
		ops([3]byte{1, 0, 3}, [3]byte{8, 0, 0}, [3]byte{4, 0, 1}, [3]byte{8, 0, 0}, [3]byte{8, 0, 0}),
		// One timer pushed back op after op: due at once (payload 4: timer 4,
		// 4 µs), parked far out (28: timer 4, 200 ms), pulled back in (16:
		// timer 4, 16 µs), between steps. Longer programs of the same shape
		// are in testdata/fuzz/FuzzEngineVsReference.
		ops([3]byte{0, 0, 9}, [3]byte{10, 0, 4}, [3]byte{10, 0, 28}, [3]byte{8, 0, 0}, [3]byte{10, 0, 16}, [3]byte{10, 0, 4}, [3]byte{8, 0, 0}, [3]byte{8, 0, 0}),
		// Events at MaxTime and MaxTime-14 beside near ones: a bounded run must
		// stop short of them, and the drain must reach them.
		ops([3]byte{2, 0, 15}, [3]byte{0, 0, 5}, [3]byte{2, 0, 14}, [3]byte{0, 1, 0}, [3]byte{9, 0, 100}, [3]byte{2, 0, 15}, [3]byte{9, 4, 1}),
		// A lane entry between two heap events on one instant, 0, 1 and 40 µs
		// ahead: it fires between them. Run in between so later ones meet a heap
		// already being popped.
		ops([3]byte{11, 0, 0}, [3]byte{11, 0, 2}, [3]byte{9, 0, 50}, [3]byte{11, 0, 7}, [3]byte{11, 0, 4}, [3]byte{9, 1, 0}),
		// A timer pushed back and then, one mode per op: pushed again (payload
		// 0), pulled in (7), stopped (14), left behind by a Run that reaches only
		// its old filing (21: parked far out; 22: near), pushed
		// to between the two (28); a reset with one pending.
		ops([3]byte{12, 0, 0}, [3]byte{12, 0, 7}, [3]byte{12, 0, 14}, [3]byte{12, 0, 21}, [3]byte{12, 0, 22}, [3]byte{12, 0, 28},
			[3]byte{8, 0, 0}, [3]byte{12, 1, 0}, [3]byte{9, 0, 0}, [3]byte{12, 0, 22}, [3]byte{9, 2, 0}),
		// A Run ended by a stop event with earlier events pending, resumed: the
		// clock must not go back. Then the same with the stop on a lane (payload
		// 0x0a41: mode 1, lane 6, 41 µs ahead).
		ops([3]byte{3, 0, 10}, [3]byte{0, 0, 20}, [3]byte{9, 0, 100}, [3]byte{9, 0, 200},
			[3]byte{15, 0x0a, 0x41}, [3]byte{0, 0, 60}, [3]byte{13, 0, 3}, [3]byte{9, 1, 0}, [3]byte{9, 1, 0}),
		// Packets on the 150 µs lanes 3 and 4 forwarded two lanes on, stepped
		// through; pushes at any delay onto the lane they ride (payloads 33, 13:
		// lane 3, 3 µs and 1 µs ahead, behind the packets: they fall back); Runs
		// that end between a lane event and a heap event (15 with mode 2:
		// payload 0x1002 puts the heap event first, 0x7142 the lane event).
		ops([3]byte{13, 0, 23}, [3]byte{13, 0, 24}, [3]byte{14, 0, 33}, [3]byte{14, 0, 13}, [3]byte{8, 0, 0}, [3]byte{8, 0, 0},
			[3]byte{15, 0x10, 0x02}, [3]byte{15, 0x71, 0x42}, [3]byte{9, 2, 0}),
		// All ten lanes taken, every ScheduleArg event taken back (15 with mode
		// 0), the lanes used again, a reset that keeps the handles (payload 11)
		// and one that drops them (payload 0), handles dropped without a reset
		// (15 with mode 3).
		ops([3]byte{13, 0, 0}, [3]byte{13, 0, 1}, [3]byte{13, 0, 2}, [3]byte{13, 0, 3}, [3]byte{13, 0, 4}, [3]byte{13, 0, 5},
			[3]byte{13, 0, 6}, [3]byte{13, 0, 7}, [3]byte{13, 0, 8}, [3]byte{13, 0, 9}, [3]byte{7, 0, 8}, [3]byte{15, 0, 0},
			[3]byte{13, 0, 12}, [3]byte{8, 0, 0}, [3]byte{9, 0, 11}, [3]byte{13, 0, 12}, [3]byte{14, 0, 52}, [3]byte{9, 0, 0},
			[3]byte{13, 0, 12}, [3]byte{15, 0, 3}, [3]byte{13, 0, 13}, [3]byte{13, 0, 14}, [3]byte{9, 4, 1}),
	}
	// All ten lanes taken four times over, the handles forgotten in between (15
	// with mode 3): the last eight of the forty are refused at the cap and their
	// packets file on the heap.
	var capped []byte
	for round := 0; round < 4; round++ {
		for k := byte(0); k < diffLanes; k++ {
			capped = append(capped, 13, 0, k)
		}
		capped = append(capped, 15, 0, 3)
	}
	return append(seeds, append(capped, 9, 4, 1))
}

// FuzzEngineVsReference fuzzes byte-decoded op programs through both queue
// implementations and fails on any trace, clock or count divergence. The CI
// fuzz-smoke job runs this for a bounded wall-clock budget on every push;
// `go test` (and the -race job) replays the seed corpus.
func FuzzEngineVsReference(f *testing.F) {
	for _, s := range engineDiffSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if !runEngineDiff(t, data) {
			t.Fatalf("engine diverged from reference (input %d bytes: %x)", len(data), data)
		}
	})
}

// TestEngineVsReferenceQuick drives the same differential harness from
// testing/quick so plain `go test` explores random programs even when the
// fuzzer is not running.
func TestEngineVsReferenceQuick(t *testing.T) {
	f := func(data []byte) bool {
		return runEngineDiff(t, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestEngineVsReferenceSeeds replays the curated fuzz seeds as ordinary
// subtests, so a seed regression points at the exact program.
func TestEngineVsReferenceSeeds(t *testing.T) {
	for i, s := range engineDiffSeeds() {
		t.Run(fmt.Sprintf("seed%d", i), func(t *testing.T) {
			if !runEngineDiff(t, s) {
				t.Fatalf("seed %d diverged", i)
			}
		})
	}
}
