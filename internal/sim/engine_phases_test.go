package sim

import (
	"fmt"
	"testing"
)

// The tests in this file aim at the queue itself: every path of the heap and
// the lanes under the differential harness, in long phases of one traffic
// shape each, keys at the far edge of the clock, and that a warm engine
// allocates nothing.

// phaseDriver feeds one seeded op stream to Engine and to refEngine in
// lockstep, like runEngineDiff, but in long phases of one traffic shape each:
// populations from a handful to thousands, which a few dozen fuzz ops never
// build.
type phaseDriver struct {
	t         *testing.T
	prod, ref *diffSide
	sides     [2]*diffSide
	rng       *RNG
	nextSeq   int
	ops       int
	failed    bool
}

func newPhaseDriver(t *testing.T, seed int64) *phaseDriver {
	p := &phaseDriver{t: t, prod: newDiffSide(NewEngine()), ref: newDiffSide(newRefEngine()), rng: NewRNG(seed)}
	p.sides = [2]*diffSide{p.prod, p.ref}
	return p
}

func (p *phaseDriver) engine() *Engine { return p.prod.e.(*Engine) }
func (p *phaseDriver) now() Time       { return p.prod.e.Now() }

// op accounts for one operation applied to both sides and checks that the
// engines still agree; the O(pending) invariant walk runs on a stride.
func (p *phaseDriver) op(what string) {
	p.ops++
	if p.failed {
		return
	}
	if err := sidesAgree(p.prod, p.ref, p.ops%16 == 0); err != nil {
		p.failed = true
		p.t.Errorf("op %d (%s): %v", p.ops, what, err)
	}
}

func (p *phaseDriver) schedule(delay Time) {
	seq := p.nextSeq
	p.nextSeq++
	for _, s := range p.sides {
		s.scheduleTraced(s.e.Now()+delay, seq)
	}
	p.op("schedule")
}

func (p *phaseDriver) push(k int, delay Time) {
	for _, s := range p.sides {
		s.pushTimer(k, s.e.Now()+delay)
	}
	p.op("timer push-back")
}

// stop is Timer.Stop on timer k.
func (p *phaseDriver) stop(k int) {
	for _, s := range p.sides {
		s.e.Cancel(s.timers[k])
	}
	p.op("timer stop")
}

func (p *phaseDriver) step() {
	if p.prod.e.Step() != p.ref.e.Step() {
		p.failed = true
		p.t.Errorf("op %d: Step return diverged", p.ops)
	}
	p.op("step")
}

func (p *phaseDriver) run(d Time) {
	until := p.now() + d
	for _, s := range p.sides {
		s.e.Run(until)
	}
	p.op("run")
}

// reset resets both engines and drops the lane handles, stale from here on.
func (p *phaseDriver) reset() {
	for _, s := range p.sides {
		s.e.Reset()
		s.ids = s.ids[:0]
	}
	p.forgetLanes()
	p.op("reset")
}

// forgetLanes drops the lane handles, so the next push on lane k takes a new
// lane from the engine.
func (p *phaseDriver) forgetLanes() {
	for _, s := range p.sides {
		s.lanes = [diffLanes]diffLane{}
	}
}

// lanePush pushes a traced event onto lane k, delay ahead.
func (p *phaseDriver) lanePush(k int, delay Time) {
	seq := p.nextSeq
	p.nextSeq++
	for _, s := range p.sides {
		s.lane(k).ScheduleArg(s.e.Now()+delay, s.packetFn, diffPacket{label: seq})
	}
	p.op("lane push")
}

// packet sends a packet over lane k and hops more lanes after it.
func (p *phaseDriver) packet(k, hops int) {
	seq := p.nextSeq
	p.nextSeq++
	for _, s := range p.sides {
		s.sendPacket(k, seq, hops)
	}
	p.op("lane packet")
}

// cancelArgs takes every ScheduleArg event back on both sides and checks that
// they gave up the same arguments, each once.
func (p *phaseDriver) cancelArgs() {
	for _, s := range p.sides {
		s.e.CancelArgs(s.reclaim)
	}
	if err := reclaimedAgree(p.prod, p.ref); err != nil && !p.failed {
		p.failed = true
		p.t.Errorf("op %d: %v", p.ops, err)
	}
	p.op("cancel args")
}

func (p *phaseDriver) drain() {
	for p.prod.e.Pending() > 0 && !p.failed {
		p.step()
	}
}

func (p *phaseDriver) between(lo, hi Time) Time { return p.rng.UniformTime(lo, hi+1) }

// dense: a hold model with events about a microsecond apart.
func (p *phaseDriver) dense(n int) {
	for i := 0; i < 200; i++ {
		p.schedule(p.between(0, 400))
	}
	for i := 0; i < n; i++ {
		p.schedule(p.between(0, 400))
		p.step()
	}
}

// packets: the ACK clock. Each round files a next-hop event under a
// millisecond out and a propagation event 75 ms out, sends a packet over the
// 75 ms lane, pushes an RTO-like timer parked 0.2-1 s out, a pacing timer a few
// hundred microseconds out and one due almost at once (so it often sits at the
// heap's root), and fires three events.
func (p *phaseDriver) packets(n int) {
	for i := 0; i < 300; i++ {
		p.schedule(p.between(0, 75*Millisecond))
	}
	for i := 0; i < n; i++ {
		p.schedule(p.between(700, 900))
		p.schedule(p.between(74*Millisecond, 76*Millisecond))
		p.packet(6, 0)
		p.step()
		p.push(i%8, p.between(200*Millisecond, Second))
		p.push(8+i%2, p.between(100, 400))
		p.push(10+i%2, p.between(0, 40))
		p.step()
		p.step()
	}
}

// sparse: a handful of events seconds apart.
func (p *phaseDriver) sparse(n int) {
	for i := 0; i < 5; i++ {
		p.schedule(p.between(0, 5*Second))
	}
	for i := 0; i < n; i++ {
		p.schedule(p.between(Second, 5*Second))
		p.push(i%8, p.between(Second, 10*Second))
		p.step()
	}
}

// storms: dozens of events on one instant, with timers parked on the same
// instant and pushed again both before the instant is reached and while its
// events are being popped.
func (p *phaseDriver) storms(n int) {
	for i := 0; i < n; i++ {
		delay := p.between(10, 2000)
		k := 40 + p.rng.Intn(60)
		for j := 0; j < k; j++ {
			p.schedule(delay)
			if j == k/2 {
				p.push(0, delay)
				p.push(1, delay)
			}
		}
		p.push(0, delay-p.between(1, 5)) // pulled in from among its ties
		p.run(delay - 1)
		at := p.now() + 1
		for j := 0; j < 3; j++ {
			p.step()
		}
		p.push(1, at-p.now()+p.between(0, 3)) // while its ties are being popped
		p.run(at - p.now())
	}
}

// horizons: Run stops short of the next event, then something is scheduled
// ahead of it and must fire first.
func (p *phaseDriver) horizons(n int) {
	for i := 0; i < n; i++ {
		p.schedule(p.between(20*Millisecond, 2*Second))
		p.run(p.between(0, 10*Millisecond))
		p.schedule(p.between(0, 500))
		p.push(i%8, p.between(0, 5*Millisecond))
		p.run(p.between(0, 2*Millisecond))
	}
}

// pushBacks takes timers through everything that can happen to a pushed-back
// event between the push and the moment its old filing reaches the root. Each
// case must agree with the reference like any other op, and must also be the
// case it claims to be: the engine's counters say whether the push was
// recorded or carried out and whether a root visit moved the slot, and Pending
// says whether an entry was added.
func (p *phaseDriver) pushBacks(n int) {
	e := p.engine()
	// ok sees what f added to the engine's counters and to Pending.
	expect := func(what string, f func(), ok func(d engineStats, queued int) bool) {
		b := e.stats
		pending := e.Pending()
		f()
		a := e.stats
		d := engineStats{deferred: a.deferred - b.deferred, headVisits: a.headVisits - b.headVisits}
		if !p.failed && !ok(d, e.Pending()-pending) {
			p.failed = true
			p.t.Errorf("op %d (%s): counters moved by %+v, Pending %d -> %d", p.ops, what, d, pending, e.Pending())
		}
	}
	// recorded: one push-back noted in the slot, no entry added.
	recorded := func(d engineStats, queued int) bool { return d.deferred == 1 && queued == 0 }
	oneVisit := func(d engineStats, _ int) bool { return d.headVisits == 1 }
	noVisit := func(d engineStats, _ int) bool { return d.headVisits == 0 }
	drain := p.drain
	for i := 0; i < n && !p.failed; i++ {
		k := i % diffTimers
		near := p.between(50, 400)
		far := 10*Second + p.between(0, 1000)
		drain()

		// A near event and a far one pushed back: recorded, nothing moves, and
		// the old filing costs one root visit.
		p.push(k, near)
		expect("push-back, near", func() { p.push(k, 2*near) }, recorded)
		expect("root visit, near", func() { p.run(near + near/2) }, oneVisit)
		drain()
		p.push(k, far)
		expect("push-back, far", func() { p.push(k, far+near) }, recorded)
		expect("root visit, far", func() { p.run(far + near/2) }, oneVisit)
		drain()

		// Pushed back again and again before the one root visit.
		p.push(k, near)
		expect("repeated push-backs", func() {
			for j := Time(1); j <= 5; j++ {
				p.push(k, near+j*100)
			}
			p.run(near + 450)
		}, func(d engineStats, _ int) bool { return d.deferred == 5 && d.headVisits == 1 })
		drain()

		// Pushed back, then pulled in ahead of the old filing: carried out at
		// once, in the slot's own entry.
		p.push(k, near)
		p.push(k, 3*near)
		expect("pull-in of a pushed-back event", func() { p.push(k, near/2) }, func(d engineStats, queued int) bool {
			return d.deferred == 0 && queued == 0
		})
		expect("no root visit after the pull-in", drain, noVisit)

		// Stopped while pushed back: the old filing is discarded, not moved.
		fired := len(p.prod.trace)
		p.push(k, near)
		p.push(k, 2*near)
		p.stop(k)
		expect("stop of a pushed-back event", drain, noVisit)
		if !p.failed && len(p.prod.trace) != fired {
			p.failed = true
			p.t.Errorf("op %d: a stopped timer fired", p.ops)
		}

		// Run reaches the old filing and stops short of the wanted time: the
		// slot moves, nothing fires, and the next Run fires it on time.
		p.push(k, near)
		p.push(k, 3*near)
		fired, x := len(p.prod.trace), e.Executed()
		expect("run to between filing and wanted time", func() { p.run(2 * near) }, oneVisit)
		if !p.failed && (len(p.prod.trace) != fired || e.Executed() != x || e.Pending() != 1) {
			p.failed = true
			p.t.Errorf("op %d: root visit fired %d events, Executed %d -> %d, Pending %d", p.ops, len(p.prod.trace)-fired, x, e.Executed(), e.Pending())
		}
		p.run(near)
		if !p.failed && (len(p.prod.trace) != fired+1 || e.Pending() != 0) {
			p.failed = true
			p.t.Errorf("op %d: the pushed-back timer did not fire on the second Run", p.ops)
		}

		// Pushed back, then pulled in, among dozens of events on its instant: no
		// lazy cancel, no second entry.
		at := p.between(500, 900)
		for j := 0; j < 40; j++ {
			p.schedule(at)
		}
		p.push(k, at)
		expect("push-back among ties", func() { p.push(k, at+p.between(0, 50)) }, recorded)
		expect("pull-in among ties", func() { p.push(k, at-p.between(1, 50)) }, func(d engineStats, queued int) bool {
			return d.deferred == 0 && queued == 0
		})
		drain()

		// CancelArgs with a pushed-back timer pending: a timer carries no
		// argument, so nothing is reclaimed and it fires where it was pushed to.
		p.push(k, near)
		p.push(k, 2*near)
		e.CancelArgs(func(arg any) {
			p.failed = true
			p.t.Errorf("op %d: CancelArgs reclaimed %v from a pushed-back timer", p.ops, arg)
		})
		expect("CancelArgs past a pushed-back timer", drain, oneVisit)

		// Reset with a pushed-back event pending: it never fires, and its slot
		// comes back clean (checkInvariants looks at the free list).
		if i%64 == 0 {
			p.push(k, near)
			p.push(k, far)
			p.reset()
		}
	}
}

// lanes takes lane events through everything the merge with the heap has to
// get right. As in pushBacks, each case must agree with the reference (for
// which a lane push is a plain ScheduleArg) and must be the case it claims to
// be: the counters say whether a push rode a lane, fell back because it would
// have broken the lane's order, or met the cap.
func (p *phaseDriver) lanes(n int) {
	e := p.engine()
	expect := func(what string, f func(), laned, fallbacks uint64) {
		b := e.stats
		f()
		if a := e.stats; !p.failed && (a.laned-b.laned != laned || a.laneFallbacks-b.laneFallbacks != fallbacks) {
			p.failed = true
			p.t.Errorf("op %d (%s): %d pushes rode a lane and %d fell back, want %d and %d",
				p.ops, what, a.laned-b.laned, a.laneFallbacks-b.laneFallbacks, laned, fallbacks)
		}
	}
	fail := func(format string, args ...any) {
		if !p.failed {
			p.failed = true
			p.t.Errorf("op %d: "+format, append([]any{p.ops}, args...)...)
		}
	}
	for i := 0; i < n && !p.failed; i++ {
		p.drain()
		p.reset() // every lane is free again
		a, b := i%diffLanes, (i+3)%diffLanes
		d := p.between(20, 400)

		// One instant shared by a heap event, a lane entry and another heap
		// event, scheduled in that order: they fire in that order.
		expect("tie", func() {
			p.schedule(d)
			p.lanePush(a, d)
			p.schedule(d)
			p.drain()
		}, 1, 0)

		// Two lanes whose heads alternate, heap events in between, and a timer
		// pushed back across them.
		expect("interleaved lanes", func() {
			for j := Time(1); j <= 3; j++ {
				p.lanePush(a, 20*j)
				p.lanePush(b, 20*j+10)
				p.schedule(20*j + 5)
			}
			p.push(i%diffTimers, 15)
			p.push(i%diffTimers, 45)
			p.drain()
		}, 6, 0)

		// A push earlier than the lane's newest entry files on the heap and
		// fires in key order all the same; one at the newest entry's own time is
		// in order and rides.
		expect("non-monotone push", func() {
			p.lanePush(a, 2*d)
			p.lanePush(a, d)
			p.lanePush(a, 2*d)
			p.drain()
		}, 2, 1)

		// Packets a constant delay ahead, forwarded lane to lane from inside the
		// callbacks while the clock advances: all ride.
		expect("forwarded packets", func() {
			for j := 0; j < 4; j++ {
				p.packet(a, 2)
				p.run(p.between(0, 3))
			}
			p.drain()
		}, 12, 0)

		// Run stops between a lane head and the heap's root, in both orders;
		// then both are undercut by events at the clock.
		for _, laneFirst := range []bool{true, false} {
			near, far := d, 3*d
			if !laneFirst {
				near, far = far, near
			}
			p.lanePush(a, near)
			p.schedule(far)
			fired := len(p.prod.trace)
			p.run(2 * d)
			if len(p.prod.trace) != fired+1 || e.Pending() != 1 {
				fail("a Run to between a lane entry and a heap event fired %d events and left %d pending", len(p.prod.trace)-fired, e.Pending())
			}
			p.lanePush(b, 0)
			p.schedule(0)
			p.drain()
		}

		// Stop from a lane callback: the Run ends there, the clock stays there,
		// and the next Run picks up what is left.
		seq := p.nextSeq
		p.nextSeq++
		for _, s := range p.sides {
			s.scheduleLaneStop(a, s.e.Now()+d, seq)
		}
		p.lanePush(a, 2*d)
		p.schedule(2 * d)
		at := p.now() + d
		p.run(10 * d)
		if p.now() != at || e.Pending() != 2 {
			fail("a Run stopped from a lane callback at %d left the clock at %d with %d events pending, want 2", at, p.now(), e.Pending())
		}
		p.run(10 * d)

		// Lanes past the cap: the handles are forgotten and every lane taken
		// anew, round after round, until the engine has handed out maxLanes; the
		// rest are refused, and their events file on the heap.
		held := [2][diffLanes]diffLane{p.prod.lanes, p.ref.lanes}
		free, rounds := maxLanes-e.nLanes, maxLanes/diffLanes+1
		refused := e.stats.laneRefused
		expect("lanes past the cap", func() {
			for r := 0; r < rounds; r++ {
				p.forgetLanes()
				for k := 0; k < diffLanes; k++ {
					p.lanePush(k, d+Time(k))
				}
			}
		}, uint64(free), 0)
		if got, want := e.stats.laneRefused-refused, uint64(rounds*diffLanes-free); got != want {
			fail("%d lanes of %d were refused, want %d", got, rounds*diffLanes, want)
		}
		p.prod.lanes, p.ref.lanes = held[0], held[1] // a and b as they were, live

		// CancelArgs with entries pending in lanes and on the heap: each
		// argument comes back once, nothing fires, the lanes stay usable.
		fired := len(p.prod.trace)
		p.cancelArgs()
		if len(p.prod.reclaimed) < diffLanes {
			fail("CancelArgs reclaimed %d arguments so far, want at least %d", len(p.prod.reclaimed), diffLanes)
		}
		expect("push after CancelArgs", func() { p.lanePush(a, d) }, 1, 0)
		p.drain()
		if len(p.prod.trace) != fired+1 {
			fail("%d events fired around a CancelArgs, want only the one pushed after it", len(p.prod.trace)-fired)
		}

		// Reset with lane entries pending: they never fire, and the handles are
		// stale — their events file on the heap, counted neither as riding nor
		// as falling back.
		p.packet(a, 1)
		p.lanePush(b, d)
		stale := [2][diffLanes]diffLane{p.prod.lanes, p.ref.lanes}
		p.reset()
		p.prod.lanes, p.ref.lanes = stale[0], stale[1]
		if e.Pending() != 0 {
			fail("Reset left %d events pending", e.Pending())
		}
		fired = len(p.prod.trace)
		expect("stale handle", func() {
			p.lanePush(a, d)
			p.lanePush(b, d/2)
			p.drain()
		}, 0, 0)
		if len(p.prod.trace) != fired+2 {
			fail("%d events fired through stale handles, want 2", len(p.prod.trace)-fired)
		}
	}
}

// TestEngineVsReferencePhases drives both engines through 200 000+ ops in
// phases, requires identical traces, and requires — through the engine's own
// counters — that every Reschedule and lane path was actually taken;
// pushBacks checks the paths of a pushed-back event case by case, and lanes
// those of a lane event.
func TestEngineVsReferencePhases(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			p := newPhaseDriver(t, seed)
			for round := 0; round < 2 && !p.failed; round++ {
				p.dense(7000)
				p.packets(4000)
				p.horizons(1500)
				p.sparse(1500)
				p.storms(40)
				p.pushBacks(150)
				p.lanes(60)
				p.dense(7000)
				if round == 0 {
					p.reset() // the second round runs on a recycled engine
				}
				p.sparse(1000)
				p.packets(4000)
				for p.prod.e.Pending() > 0 && !p.failed {
					p.run(Minute) // drain
				}
			}
			if p.failed {
				return
			}
			if p.ops < 200_000 {
				t.Errorf("program ran %d ops, want >= 200000", p.ops)
			}
			if p.prod.e.Pending() != 0 || p.ref.e.Pending() != 0 {
				t.Fatalf("drain left %d / %d events pending", p.prod.e.Pending(), p.ref.e.Pending())
			}
			if err := tracesAgree(p.prod, p.ref); err != nil {
				t.Fatal(err)
			}
			st := p.engine().stats
			for _, c := range []struct {
				name string
				n    uint64
			}{
				{"push-back recorded in the slot", st.deferred},
				{"root visit of a pushed-back event", st.headVisits},
				{"lane push", st.laned},
				{"lane push out of order", st.laneFallbacks},
				{"lane refused at the cap", st.laneRefused},
			} {
				if c.n == 0 {
					t.Errorf("the program never exercised: %s", c.name)
				}
			}
			t.Logf("%d ops, %d events; %+v", p.ops, len(p.prod.trace), st)
		})
	}
}

// TestEngineFarFutureTimes schedules one event at the far edge of the clock's
// range, MaxTime (the documented "never" sentinel) included, beside a varying
// number of near ones, on a fresh engine and on one recycled after an earlier
// run (tuned=true in the subtest names). No key comparison may wrap: the
// engine runs to a near horizon firing exactly the near events, then drains
// firing the far one.
func TestEngineFarFutureTimes(t *testing.T) {
	for _, recycled := range []bool{false, true} {
		for _, far := range []Time{1 << 40, 1 << 62, MaxTime - 1, MaxTime} {
			for _, near := range []int{0, 10, 100, 2000} {
				t.Run(fmt.Sprintf("tuned=%v/far=%d/near=%d", recycled, far, near), func(t *testing.T) {
					e := NewEngine()
					if recycled {
						var hold func(Time)
						hold = func(now Time) { e.Schedule(now+37, hold) }
						for i := 0; i < 300; i++ {
							e.Schedule(Time(i), hold)
						}
						e.Run(50 * Millisecond)
						e.Reset()
					}
					fired, farFired := 0, 0
					for i := 0; i < near; i++ {
						e.Schedule(5+Time(i)*13, func(Time) { fired++ })
					}
					e.Schedule(far, func(now Time) {
						farFired++
						if now != far {
							t.Errorf("far event fired at %d, want %d", now, far)
						}
					})
					e.Run(1 << 30)
					if fired != near || farFired != 0 || e.Pending() != 1 {
						t.Fatalf("after Run(1<<30): %d near and %d far events fired, %d pending; want %d, 0, 1", fired, farFired, e.Pending(), near)
					}
					if err := e.checkInvariants(); err != nil {
						t.Fatal(err)
					}
					e.Run(MaxTime)
					if farFired != 1 || e.Pending() != 0 || e.Executed() != uint64(near)+1 {
						t.Fatalf("after drain: far event fired %d times, %d pending, %d executed", farFired, e.Pending(), e.Executed())
					}
				})
			}
		}
	}
}

// TestRefiledKeyOlderThanBucketTail pins the full-key comparison where a
// refiled key meets entries scheduled after it was reserved. A pushed-back
// timer's sequence number is taken at the push and the slot moved only when
// its old filing reaches the root; an event scheduled in between onto the
// timer's new instant holds a newer number and is already in the heap when the
// timer's entry is rewritten. The timer must settle ahead of it, on a fresh
// engine and on a recycled one (tuned=true in the subtest names), whether the
// new instant is the old filing's own (gap 0) or later. (Lane events that fall
// back to the heap cannot produce this: they take their sequence number as
// they are filed.)
func TestRefiledKeyOlderThanBucketTail(t *testing.T) {
	for _, recycled := range []bool{false, true} {
		for _, gap := range []Time{0, 1, 5, 40} {
			t.Run(fmt.Sprintf("tuned=%v/gap=%d", recycled, gap), func(t *testing.T) {
				e := NewEngine()
				if recycled {
					var hold func(Time)
					hold = func(now Time) { e.Schedule(now+400, hold) }
					for i := 0; i < 4; i++ {
						e.Schedule(Time(i)*100, hold)
					}
					e.Run(500 * Millisecond)
					e.Reset()
				}
				const at = Time(256)
				var order []string
				timer := e.NewTimer(func(Time) { order = append(order, "timer") })
				// The timer's old filing is the second entry on the first event's
				// instant.
				e.Schedule(at, func(now Time) {
					order = append(order, "first")
					timer.Schedule(now + gap) // recorded in the slot, not moved
					e.Schedule(now+gap, func(Time) { order = append(order, "scheduled after the push-back") })
				})
				timer.Schedule(at)
				before := e.stats
				e.Run(at + 100)
				want := []string{"first", "timer", "scheduled after the push-back"}
				if fmt.Sprint(order) != fmt.Sprint(want) {
					t.Errorf("fire order %q, want %q", order, want)
				}
				if d := e.stats.headVisits - before.headVisits; d != 1 {
					t.Errorf("the timer's old filing was visited %d times, want 1: the push-back was not a recorded one", d)
				}
			})
		}
	}
}

// TestRescheduleOfLiveEventKeepsPending pulls one of a hundred events sharing
// a near instant earlier, pushes it later and pulls it earlier again. Each move
// must be made in the event's own heap entry — Pending does not move, no
// canceled entry is left behind — and the fire order must be the reference's
// Cancel+Schedule order.
func TestRescheduleOfLiveEventKeepsPending(t *testing.T) {
	prod, ref := newDiffSide(NewEngine()), newDiffSide(newRefEngine())
	const at, moved = Time(50), 41
	for _, s := range []*diffSide{prod, ref} {
		for i := 0; i < 100; i++ {
			s.scheduleTraced(at, i)
		}
	}
	e := prod.e.(*Engine)
	for i, to := range []Time{at - 7, at + 10, at - 30} {
		for _, s := range []*diffSide{prod, ref} {
			s.ids[moved] = s.e.Reschedule(s.ids[moved], to, func(now Time) {
				s.trace = append(s.trace, diffFire{seq: moved, at: now})
			})
		}
		if e.Pending() != 100 || e.canceled != 0 {
			t.Fatalf("after Reschedule %d (to %d): Pending %d with %d canceled, want 100 and 0", i, to, e.Pending(), e.canceled)
		}
		if err := sidesAgree(prod, ref, true); err != nil {
			t.Fatalf("after Reschedule %d (to %d): %v", i, to, err)
		}
	}
	prod.e.Run(MaxTime)
	ref.e.Run(MaxTime)
	if err := tracesAgree(prod, ref); err != nil {
		t.Fatal(err)
	}
	if first := prod.trace[0]; len(prod.trace) != 100 || first.seq != moved || first.at != at-30 {
		t.Errorf("%d events fired, the first %+v; want 100 and the moved one at %d", len(prod.trace), first, at-30)
	}
}

// holdModel keeps a fixed population of events in an engine: every event that
// fires schedules one successor a uniform delay in [0, 2·mean) ahead, so with
// n events pending one leaves every mean/n on average. Delays come from an
// inline generator so a run allocates nothing itself.
type holdModel struct {
	e     *Engine
	mean  Time
	state uint64
	fn    func(Time)
}

func newHoldModel(e *Engine) *holdModel {
	h := &holdModel{e: e, state: 1}
	h.fn = func(now Time) { h.e.Schedule(now+h.delay(), h.fn) }
	return h
}

func (h *holdModel) delay() Time {
	h.state = h.state*6364136223846793005 + 1442695040888963407
	return Time((h.state >> 33) % uint64(2*h.mean))
}

// TestEngineWarmResetZeroAllocs runs one program again and again on one
// engine with a Reset in between. Inside each run the pending count rises to
// thousands, falls to a few dozen and rises again; once the slab, the free
// list and the heap have grown to the first run's high-water mark, none of
// that may allocate. Half the events ride lanes taken anew after each Reset —
// a propagation lane some hundreds of entries deep and a service lane of one —
// and must find the rings the last run grew.
func TestEngineWarmResetZeroAllocs(t *testing.T) {
	e := NewEngine()
	h := newHoldModel(e)
	h.mean = 2000
	var prop, svc Lane
	arrive := func(Time, any) {}
	var serve func(Time, any)
	serve = func(now Time, _ any) { svc.ScheduleArg(now+3, serve, nil) }
	// Each event steers the population toward target: below it, it leaves two
	// successors; well above it, none; otherwise one. Each also sends a packet
	// down the propagation lane.
	var target int
	h.fn = func(now Time) {
		successors := 1
		switch n := e.Pending(); {
		case n < target:
			successors = 2
		case n > target+target/4:
			successors = 0
		}
		for i := 0; i < successors; i++ {
			e.Schedule(now+h.delay(), h.fn)
		}
		prop.ScheduleArg(now+500, arrive, nil)
	}
	run := func() {
		e.Reset()
		prop, svc = e.NewLane(), e.NewLane()
		svc.ScheduleArg(0, serve, nil)
		h.state = 1
		target = 3000
		for i := 0; i < 100; i++ {
			e.Schedule(h.delay(), h.fn)
		}
		for _, phase := range []struct {
			target int
			events uint64
		}{{3000, 12000}, {20, 12000}, {3000, 12000}} {
			target = phase.target
			for x0 := e.Executed(); e.Executed() < x0+phase.events; {
				e.Step()
			}
		}
	}
	run()
	before := e.stats
	run()
	if after := e.stats; after.laned-before.laned < 10000 || after.laneFallbacks != 0 || after.laneRefused != 0 {
		t.Fatalf("a warm run put %d events on lanes (%d fell back, %d lanes refused); the program must ride them",
			after.laned-before.laned, after.laneFallbacks, after.laneRefused)
	}
	if allocs := testing.AllocsPerRun(3, run); allocs != 0 {
		t.Errorf("a warm run → Reset → same run allocates %.0f times, want 0", allocs)
	}
}
