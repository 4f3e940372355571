package sim

import (
	"testing"
	"testing/quick"
)

// The property tests pit the slab-and-free-list engine against an obviously
// correct reference model (a flat slice scanned for the minimum) across
// random interleavings of Schedule, Cancel, Stop, Step and Run — including
// cancel storms that force slot reuse and heap compaction. The engine must
// produce the identical execution trace and Executed() count.

// refEvent is one event in the reference model.
type refEvent struct {
	at       Time
	seq      int // insertion order, doubles as the trace label
	canceled bool
	stop     bool // the event calls Stop when it runs
	fired    bool
}

// refModel executes events exactly as the Engine contract specifies, with no
// cleverness: linear scans for the earliest (at, seq).
type refModel struct {
	now    Time
	events []refEvent
	trace  []int
}

// next returns the index of the earliest pending event, canceled or not
// (canceled events still occupy the queue until popped, matching Pending()),
// or -1.
func (m *refModel) next() int {
	best := -1
	for i := range m.events {
		ev := &m.events[i]
		if ev.fired {
			continue
		}
		if best == -1 || ev.at < m.events[best].at ||
			(ev.at == m.events[best].at && ev.seq < m.events[best].seq) {
			best = i
		}
	}
	return best
}

func (m *refModel) step() bool {
	for {
		i := m.next()
		if i == -1 {
			return false
		}
		ev := &m.events[i]
		ev.fired = true
		if ev.canceled {
			continue
		}
		m.now = ev.at
		m.trace = append(m.trace, ev.seq)
		return true
	}
}

func (m *refModel) run(until Time) {
	for {
		i := m.next()
		if i == -1 {
			break
		}
		ev := &m.events[i]
		if ev.at > until {
			break
		}
		ev.fired = true
		if ev.canceled {
			continue
		}
		m.now = ev.at
		m.trace = append(m.trace, ev.seq)
		if ev.stop {
			return // a stopped run leaves the clock at the stop event
		}
	}
	if m.now < until {
		m.now = until
	}
}

// TestEngineMatchesReferenceModel drives both implementations with the same
// random op sequence and requires identical traces, clocks and counts.
func TestEngineMatchesReferenceModel(t *testing.T) {
	f := func(raw []uint16) bool {
		e := NewEngine()
		ref := &refModel{}
		var ids []EventID // engine EventID per reference seq
		var got []int
		nextSeq := 0

		schedule := func(at Time, stop bool) {
			seq := nextSeq
			nextSeq++
			ref.events = append(ref.events, refEvent{at: at, seq: seq, stop: stop})
			ids = append(ids, e.Schedule(at, func(now Time) {
				got = append(got, seq)
				if stop {
					e.Stop()
				}
			}))
		}

		for _, r := range raw {
			op := r % 100
			payload := Time(r / 100)
			switch {
			case op < 45: // schedule a plain event in the near future
				schedule(e.Now()+payload, false)
			case op < 50: // schedule an event that stops the run
				schedule(e.Now()+payload, true)
			case op < 70: // cancel a previously scheduled event (any state)
				if len(ids) > 0 {
					i := int(r) % len(ids)
					e.Cancel(ids[i])
					if !ref.events[i].fired {
						ref.events[i].canceled = true
					}
				}
			case op < 75: // cancel storm: force slot reuse and compaction
				base := e.Now() + 100_000
				for j := Time(0); j < 100; j++ {
					seq := nextSeq
					nextSeq++
					ref.events = append(ref.events, refEvent{at: base + j, seq: seq, canceled: true})
					id := e.Schedule(base+j, func(Time) {
						t.Errorf("canceled event %d ran", seq)
					})
					ids = append(ids, id)
					e.Cancel(id)
				}
			case op < 85: // single step
				if e.Step() != ref.step() {
					return false
				}
			default: // bounded run
				until := e.Now() + payload
				e.Run(until)
				ref.run(until)
			}
			if e.Now() != ref.now {
				return false
			}
		}

		// Drain everything left; Stop events can halt a Run early, so keep
		// running until the engine's queue is empty.
		e.Run(1 << 40)
		ref.run(1 << 40)
		for e.Pending() > 0 {
			e.Run(1 << 40)
			ref.run(1 << 40)
		}

		if len(got) != len(ref.trace) {
			t.Logf("trace lengths differ: got %d want %d", len(got), len(ref.trace))
			return false
		}
		for i := range got {
			if got[i] != ref.trace[i] {
				t.Logf("trace diverges at %d: got %d want %d", i, got[i], ref.trace[i])
				return false
			}
		}
		if e.Executed() != uint64(len(got)) {
			t.Logf("Executed() = %d, trace length %d", e.Executed(), len(got))
			return false
		}
		return e.Now() == ref.now
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestEngineSlotReuseKeepsIDsStale pins the generation-counting contract
// directly: after a slot is reclaimed and reused, the stale EventID must not
// cancel the slot's new occupant.
func TestEngineSlotReuseKeepsIDsStale(t *testing.T) {
	e := NewEngine()
	ran := 0
	id1 := e.Schedule(10, func(Time) { ran++ })
	e.Run(20) // id1 executes; its slot returns to the free list
	id2 := e.Schedule(30, func(Time) { ran++ })
	if id1 == id2 {
		t.Fatal("distinct events produced identical EventIDs")
	}
	e.Cancel(id1) // stale: must not touch the reused slot
	e.Run(40)
	if ran != 2 {
		t.Fatalf("ran %d events, want 2 (stale Cancel hit a reused slot)", ran)
	}
}

// TestEngineCompactionPreservesOrder cancels enough events to trigger heap
// compaction and verifies the survivors still run in (time, seq) order with
// the right count.
func TestEngineCompactionPreservesOrder(t *testing.T) {
	e := NewEngine()
	var fired []Time
	var keepIDs []EventID
	// Interleave survivors and victims so compaction has to filter a mixed
	// heap. 400 victims comfortably exceed the compaction threshold.
	for i := 0; i < 200; i++ {
		at := Time(1000 - i) // reverse order stresses the heap
		e.Schedule(at, func(now Time) { fired = append(fired, now) })
		for j := 0; j < 2; j++ {
			id := e.Schedule(Time(500+i), func(Time) { t.Error("canceled event ran") })
			keepIDs = append(keepIDs, id)
		}
	}
	before := e.Pending()
	for _, id := range keepIDs {
		e.Cancel(id)
	}
	if e.Pending() >= before {
		t.Fatalf("compaction did not shrink the heap: %d -> %d", before, e.Pending())
	}
	e.Run(2000)
	if len(fired) != 200 {
		t.Fatalf("fired %d survivors, want 200", len(fired))
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("order violated after compaction: %v before %v", fired[i-1], fired[i])
		}
	}
	if e.Executed() != 200 {
		t.Fatalf("Executed() = %d, want 200", e.Executed())
	}
}
