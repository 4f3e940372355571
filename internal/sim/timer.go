package sim

// Timer is a reschedulable one-shot timer: one callback, fixed at
// construction, fired at most once per arming. Rearming cancels any pending
// firing first. Because the callback is stored once, arming a Timer performs
// no allocation — unlike scheduling a fresh closure per tick, which is
// exactly the churn the RTO and pacing paths used to generate.
//
// A Timer belongs to one engine and, like the engine, is not safe for
// concurrent use.
type Timer struct {
	engine *Engine
	fn     func(now Time)
	id     EventID
}

// NewTimer returns an unarmed timer firing fn.
func (e *Engine) NewTimer(fn func(now Time)) *Timer {
	if fn == nil {
		panic("sim: NewTimer called with nil callback")
	}
	return &Timer{engine: e, fn: fn}
}

// Schedule arms the timer to fire at the absolute time at, canceling any
// pending firing. Re-arming goes through Engine.Reschedule, so a pending
// timer keeps its slot and its one heap entry, whatever it shares its instant
// with: pushed back (the RTO, on every send and every ACK) it is not even
// moved, the engine only notes the new time; pulled in (the pacing timer, per
// packet) its entry is sifted up on the spot.
func (t *Timer) Schedule(at Time) {
	t.id = t.engine.Reschedule(t.id, at, t.fn)
}

// ScheduleAfter arms the timer to fire after delay from now, canceling any
// pending firing.
func (t *Timer) ScheduleAfter(delay Time) {
	if delay < 0 {
		delay = 0
	}
	t.Schedule(t.engine.Now() + delay)
}

// Stop cancels the pending firing, if any.
func (t *Timer) Stop() {
	t.engine.Cancel(t.id)
	t.id = EventID{}
}
