package sim

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	cases := []struct {
		t       Time
		seconds float64
		millis  float64
	}{
		{0, 0, 0},
		{Second, 1, 1000},
		{Millisecond, 0.001, 1},
		{150 * Millisecond, 0.15, 150},
		{Minute, 60, 60000},
	}
	for _, c := range cases {
		if got := c.t.Seconds(); math.Abs(got-c.seconds) > 1e-12 {
			t.Errorf("Seconds(%d) = %v, want %v", c.t, got, c.seconds)
		}
		if got := c.t.Millis(); math.Abs(got-c.millis) > 1e-12 {
			t.Errorf("Millis(%d) = %v, want %v", c.t, got, c.millis)
		}
	}
	if FromSeconds(1.5) != 1500*Millisecond {
		t.Errorf("FromSeconds(1.5) = %v", FromSeconds(1.5))
	}
	if FromMillis(2.5) != 2500*Microsecond {
		t.Errorf("FromMillis(2.5) = %v", FromMillis(2.5))
	}
	if MinTime(3, 5) != 3 || MinTime(5, 3) != 3 {
		t.Error("MinTime broken")
	}
	if MaxOf(3, 5) != 5 || MaxOf(5, 3) != 5 {
		t.Error("MaxOf broken")
	}
	if (2 * Second).String() != "2.000000s" {
		t.Errorf("String() = %q", (2 * Second).String())
	}
}

func TestEngineRunsEventsInOrder(t *testing.T) {
	e := NewEngine()
	var order []Time
	times := []Time{50, 10, 30, 20, 40, 10}
	for _, at := range times {
		at := at
		e.Schedule(at, func(now Time) {
			if now != at {
				t.Errorf("callback at %v fired at %v", at, now)
			}
			order = append(order, now)
		})
	}
	e.Run(100)
	if len(order) != len(times) {
		t.Fatalf("executed %d events, want %d", len(order), len(times))
	}
	if !sort.SliceIsSorted(order, func(i, j int) bool { return order[i] < order[j] }) {
		t.Errorf("events out of order: %v", order)
	}
	if e.Now() != 100 {
		t.Errorf("Now() = %v after Run(100)", e.Now())
	}
	if e.Executed() != uint64(len(times)) {
		t.Errorf("Executed() = %d, want %d", e.Executed(), len(times))
	}
}

func TestEngineSimultaneousEventsFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func(Time) { order = append(order, i) })
	}
	e.Run(10)
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events not FIFO: %v", order)
		}
	}
}

func TestEngineRunHorizon(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.Schedule(10, func(Time) { ran++ })
	e.Schedule(200, func(Time) { ran++ })
	e.Run(100)
	if ran != 1 {
		t.Fatalf("ran %d events before horizon, want 1", ran)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	e.Run(300)
	if ran != 2 {
		t.Fatalf("ran %d events after second Run, want 2", ran)
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	ran := false
	id := e.Schedule(10, func(Time) { ran = true })
	e.Cancel(id)
	e.Run(100)
	if ran {
		t.Error("canceled event ran")
	}
	// Canceling an invalid id must not panic.
	e.Cancel(EventID{})
	if (EventID{}).Valid() {
		t.Error("zero EventID should be invalid")
	}
	if !id.Valid() {
		t.Error("real EventID should be valid")
	}
}

// TestEngineCancelArgs checks that CancelArgs hands back the argument of every
// live ScheduleArg event exactly once — near the heap's root and at its bottom
// alike — leaves plain events to fire, and finds nothing on a second call.
func TestEngineCancelArgs(t *testing.T) {
	e := NewEngine()
	fired := 0
	argFired := 0
	onArg := func(Time, any) { argFired++ }
	args := make([]*int, 300)
	for i := range args {
		args[i] = new(int)
		// Spread over the near and the far future.
		at := Time(i) * Millisecond
		if i%7 == 0 {
			at += Minute
		}
		id := e.ScheduleArg(at, onArg, args[i])
		if i%5 == 0 {
			e.Cancel(id) // the canceller owns this argument, not CancelArgs
		}
		e.Schedule(at, func(Time) { fired++ })
	}
	e.Run(50 * Millisecond) // consume a prefix
	ranArgs := argFired

	// Two pushed-back events are pending as well, still filed at their old
	// times: a plain timer, and what was an arg event until Reschedule gave its
	// slot a plain callback (its argument went back to its owner then).
	var pushedAt []Time
	onPushed := func(now Time) { pushedAt = append(pushedAt, now) }
	e.Reschedule(e.Schedule(60*Millisecond, onPushed), 90*Millisecond, onPushed)
	taken := new(int)
	e.Reschedule(e.ScheduleArg(70*Millisecond, onArg, taken), 80*Millisecond, onPushed)

	seen := make(map[*int]int)
	e.CancelArgs(func(arg any) { seen[arg.(*int)]++ })
	if seen[taken] != 0 {
		t.Fatal("CancelArgs reclaimed the argument of an event Reschedule had taken over")
	}
	for i, a := range args {
		want := 1
		if i%5 == 0 || (i <= 50 && i%7 != 0) {
			want = 0 // canceled by its scheduler, or already fired
		}
		if seen[a] != want {
			t.Fatalf("arg %d reclaimed %d times, want %d", i, seen[a], want)
		}
	}
	e.CancelArgs(func(arg any) { t.Fatalf("second CancelArgs reclaimed %v", arg) })

	e.Run(2 * Minute)
	if argFired != ranArgs {
		t.Errorf("%d arg events fired after CancelArgs", argFired-ranArgs)
	}
	if fired != len(args) {
		t.Errorf("%d plain events fired, want %d", fired, len(args))
	}
	if want := []Time{80 * Millisecond, 90 * Millisecond}; fmt.Sprint(pushedAt) != fmt.Sprint(want) {
		t.Errorf("pushed-back events fired at %v, want %v", pushedAt, want)
	}
	e.Reset()
	if e.Pending() != 0 {
		t.Errorf("Pending after Reset = %d", e.Pending())
	}
}

func TestEngineScheduleAfterAndStop(t *testing.T) {
	e := NewEngine()
	var fired []Time
	e.Schedule(10, func(now Time) {
		e.ScheduleAfter(5, func(now Time) { fired = append(fired, now) })
		e.ScheduleAfter(-3, func(now Time) { fired = append(fired, now) }) // clamps to now
	})
	e.Schedule(30, func(now Time) {
		fired = append(fired, now)
		e.Stop()
	})
	e.Schedule(40, func(now Time) { fired = append(fired, now) })
	e.Run(100)
	want := []Time{10, 15, 30}
	if len(fired) != len(want) {
		t.Fatalf("fired = %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired = %v, want %v", fired, want)
		}
	}
	// Resuming runs the remaining event.
	e.Run(100)
	if len(fired) != 4 || fired[3] != 40 {
		t.Fatalf("after resume fired = %v", fired)
	}
}

// TestStoppedRunKeepsClockMonotone: a Run ended by Stop has events earlier
// than its horizon still pending, so it must leave the clock at the event that
// stopped it. Moved to the horizon, the clock would go backwards when the next
// Run fires them (and a Schedule between the two Runs at a time before the
// horizon would panic as "in the past").
func TestStoppedRunKeepsClockMonotone(t *testing.T) {
	e := NewEngine()
	var fired []Time
	e.Schedule(10, func(Time) { e.Stop() })
	e.Schedule(20, func(now Time) { fired = append(fired, now) })
	e.Run(100)
	if e.Now() != 10 || e.Pending() != 1 {
		t.Fatalf("stopped Run(100) left the clock at %v with %d events pending, want 10 and 1", e.Now(), e.Pending())
	}
	e.Schedule(15, func(now Time) { fired = append(fired, now) })
	last := e.Now()
	e.Run(200)
	if fmt.Sprint(fired) != fmt.Sprint([]Time{15, 20}) {
		t.Errorf("resumed Run fired at %v, want [15 20]", fired)
	}
	if e.Now() != 200 || e.Now() < last {
		t.Errorf("resumed Run(200) left the clock at %v (it stood at %v before)", e.Now(), last)
	}

	// The same from a lane callback.
	e.Reset()
	fired = fired[:0]
	lane := e.NewLane()
	lane.ScheduleArg(10, func(Time, any) { e.Stop() }, nil)
	lane.ScheduleArg(20, func(now Time, _ any) { fired = append(fired, now) }, nil)
	e.Run(100)
	if e.Now() != 10 || e.Pending() != 1 {
		t.Fatalf("Run(100) stopped from a lane left the clock at %v with %d events pending, want 10 and 1", e.Now(), e.Pending())
	}
	e.Run(100)
	if e.Now() != 100 || fmt.Sprint(fired) != fmt.Sprint([]Time{20}) {
		t.Errorf("resumed Run(100) left the clock at %v having fired at %v, want 100 and [20]", e.Now(), fired)
	}
}

// TestLaneHandles covers what the differential tests cannot see from the
// outside: which handles are live, that the zero Lane is not, and that Lane's
// checks are Engine.ScheduleArg's.
func TestLaneHandles(t *testing.T) {
	e := NewEngine()
	var zero Lane
	if zero.Live() {
		t.Error("the zero Lane reports itself live")
	}
	lanes := make([]Lane, maxLanes+2)
	for i := range lanes {
		lanes[i] = e.NewLane()
		if !lanes[i].Live() {
			t.Errorf("lane %d of a fresh engine is not live", i)
		}
	}
	fired := 0
	for _, l := range lanes {
		l.ScheduleArg(5, func(Time, any) { fired++ }, nil)
	}
	if e.inLanes != maxLanes || e.Pending() != len(lanes) || e.stats.laneRefused != 2 {
		t.Errorf("%d lanes hold %d events of %d pending, %d lanes refused; want %d, %d and 2", len(lanes), e.inLanes, e.Pending(), e.stats.laneRefused, maxLanes, len(lanes))
	}
	e.Run(10)
	if fired != len(lanes) {
		t.Errorf("%d events fired, want %d", fired, len(lanes))
	}
	e.Reset()
	for i, l := range lanes {
		if l.Live() {
			t.Errorf("lane %d is still live after Reset", i)
		}
	}
	if l := e.NewLane(); !l.Live() || l == lanes[0] {
		t.Error("the first lane after a Reset is not live, or equals its stale predecessor")
	}
	for name, f := range map[string]func(){
		"nil callback": func() { lanes[0].ScheduleArg(10, nil, nil) },
		"the past":     func() { e.Run(50); e.NewLane().ScheduleArg(10, func(Time, any) {}, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Lane.ScheduleArg with %s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(50, func(Time) {})
	e.Run(100)
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past did not panic")
		}
	}()
	e.Schedule(10, func(Time) {})
}

func TestEngineNilCallbackPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("nil callback did not panic")
		}
	}()
	e.Schedule(10, nil)
}

func TestEngineStep(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Schedule(3, func(Time) { count++ })
	e.Schedule(7, func(Time) { count++ })
	if !e.Step() || e.Now() != 3 || count != 1 {
		t.Fatalf("first Step: now=%v count=%d", e.Now(), count)
	}
	if !e.Step() || e.Now() != 7 || count != 2 {
		t.Fatalf("second Step: now=%v count=%d", e.Now(), count)
	}
	if e.Step() {
		t.Error("Step on empty queue returned true")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced different sequences")
		}
	}
	c := NewRNG(42)
	d := NewRNG(43)
	same := true
	for i := 0; i < 10; i++ {
		if c.Float64() != d.Float64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical sequences")
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	parent := NewRNG(7)
	c1 := parent.Split(1)
	c2 := parent.Split(2)
	equal := 0
	for i := 0; i < 100; i++ {
		if c1.Float64() == c2.Float64() {
			equal++
		}
	}
	if equal > 5 {
		t.Errorf("split streams look correlated: %d equal draws of 100", equal)
	}
	// Splitting with the same label from identically seeded parents must be
	// reproducible.
	p1 := NewRNG(9)
	p2 := NewRNG(9)
	s1 := p1.Split(3)
	s2 := p2.Split(3)
	for i := 0; i < 50; i++ {
		if s1.Float64() != s2.Float64() {
			t.Fatal("Split is not deterministic")
		}
	}
}

func TestRNGDistributions(t *testing.T) {
	g := NewRNG(1)
	const n = 200000

	var sum float64
	for i := 0; i < n; i++ {
		v := g.Exponential(5)
		if v < 0 {
			t.Fatal("negative exponential draw")
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-5) > 0.1 {
		t.Errorf("exponential mean = %v, want ~5", mean)
	}

	sum = 0
	for i := 0; i < n; i++ {
		v := g.Uniform(2, 4)
		if v < 2 || v >= 4 {
			t.Fatalf("uniform draw %v outside [2,4)", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-3) > 0.05 {
		t.Errorf("uniform mean = %v, want ~3", mean)
	}

	for i := 0; i < 1000; i++ {
		v := g.Pareto(147, 0.5)
		if v < 147 {
			t.Fatalf("pareto draw %v below scale", v)
		}
	}
	// Pareto with alpha=2 has mean alpha*xm/(alpha-1) = 2*xm.
	sum = 0
	for i := 0; i < n; i++ {
		sum += g.Pareto(1, 3)
	}
	if mean := sum / n; math.Abs(mean-1.5) > 0.1 {
		t.Errorf("pareto(1,3) mean = %v, want ~1.5", mean)
	}

	counts := map[int]int{}
	for i := 0; i < n; i++ {
		v := g.UniformInt(1, 4)
		if v < 1 || v > 4 {
			t.Fatalf("UniformInt out of range: %d", v)
		}
		counts[v]++
	}
	for v := 1; v <= 4; v++ {
		frac := float64(counts[v]) / n
		if math.Abs(frac-0.25) > 0.02 {
			t.Errorf("UniformInt value %d frequency %v, want ~0.25", v, frac)
		}
	}
}

func TestRNGEdgeCases(t *testing.T) {
	g := NewRNG(2)
	if g.Exponential(0) != 0 {
		t.Error("Exponential(0) != 0")
	}
	if g.Exponential(-1) != 0 {
		t.Error("Exponential(-1) != 0")
	}
	if g.Uniform(5, 5) != 5 {
		t.Error("Uniform with empty range should return lo")
	}
	if g.Uniform(5, 2) != 5 {
		t.Error("Uniform with inverted range should return lo")
	}
	if g.UniformInt(3, 3) != 3 {
		t.Error("UniformInt degenerate range")
	}
	if g.Pareto(0, 1) != 0 {
		t.Error("Pareto with zero scale")
	}
	if g.Intn(0) != 0 {
		t.Error("Intn(0) should return 0")
	}
	if g.ExpTime(0) != 0 {
		t.Error("ExpTime(0) != 0")
	}
	if g.UniformTime(10, 5) != 10 {
		t.Error("UniformTime inverted range should return lo")
	}
}

func TestRNGTimeHelpers(t *testing.T) {
	g := NewRNG(3)
	var sum Time
	const n = 100000
	for i := 0; i < n; i++ {
		v := g.ExpTime(100 * Millisecond)
		if v < 0 {
			t.Fatal("negative ExpTime")
		}
		sum += v
	}
	mean := float64(sum) / n
	if math.Abs(mean-float64(100*Millisecond)) > float64(2*Millisecond) {
		t.Errorf("ExpTime mean = %v us, want ~%v", mean, 100*Millisecond)
	}
	for i := 0; i < 1000; i++ {
		v := g.UniformTime(10*Millisecond, 20*Millisecond)
		if v < 10*Millisecond || v >= 20*Millisecond {
			t.Fatalf("UniformTime out of range: %v", v)
		}
	}
}

// Property: regardless of the (non-negative) times scheduled, the engine
// executes every event exactly once and in non-decreasing time order.
func TestEngineOrderProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		e := NewEngine()
		var horizon Time
		for _, r := range raw {
			at := Time(r)
			if at > horizon {
				horizon = at
			}
		}
		var executed []Time
		for _, r := range raw {
			at := Time(r)
			e.Schedule(at, func(now Time) { executed = append(executed, now) })
		}
		e.Run(horizon + 1)
		if len(executed) != len(raw) {
			return false
		}
		for i := 1; i < len(executed); i++ {
			if executed[i] < executed[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 1000; j++ {
			e.Schedule(Time(j), func(Time) {})
		}
		e.Run(2000)
	}
}

// BenchmarkEngineScheduleCancelRun measures the timer-churn pattern the
// transport generates: every event is scheduled, then rescheduled (cancel +
// schedule) before finally running — the RTO timer's life cycle.
func BenchmarkEngineScheduleCancelRun(b *testing.B) {
	fn := func(Time) {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 1000; j++ {
			id := e.Schedule(Time(j), fn)
			e.Cancel(id)
			e.Schedule(Time(j), fn)
		}
		e.Run(2000)
	}
}

// BenchmarkEngineSteadyState measures a long-lived engine with a bounded
// pending set — the shape of a simulation in flight, where slot reuse (not
// slab growth) dominates.
func BenchmarkEngineSteadyState(b *testing.B) {
	e := NewEngine()
	var fn func(Time)
	fn = func(now Time) { e.Schedule(now+10, fn) }
	for j := 0; j < 64; j++ {
		e.Schedule(Time(j), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkEngineAckClock is the engine's share of a congestion-controlled
// dumbbell, which a hold model with uniform delays cannot show: ~300 packets
// that alternate a sub-millisecond hop with a 75 ms propagation delay (an
// event every ~125 µs), plus eight RTO-like timers parked 0.2-1 s out, one of
// which is pushed back on every event. All of it waits on the heap: this is
// the engine without lanes, a population the simulator no longer gives it.
func BenchmarkEngineAckClock(b *testing.B) {
	e := NewEngine()
	var timers [8]*Timer
	for i := range timers {
		timers[i] = e.NewTimer(func(Time) {})
	}
	k := 0
	var fn func(Time)
	fn = func(now Time) {
		k++
		if k&1 == 0 {
			e.Schedule(now+800*Microsecond+Time(k&63), fn)
		} else {
			e.Schedule(now+75*Millisecond+Time(k&1023), fn)
		}
		timers[k&7].Schedule(now + 200*Millisecond + Time(k&7)*100*Millisecond)
	}
	for i := 0; i < 300; i++ {
		e.Schedule(Time(i)*250*Microsecond, fn)
	}
	for i := 0; i < 20000; i++ { // past the start-up transient
		e.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

func BenchmarkRNGExponential(b *testing.B) {
	g := NewRNG(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = g.Exponential(1.0)
	}
}
