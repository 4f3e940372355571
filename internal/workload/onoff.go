package workload

import (
	"fmt"

	"repro/internal/sim"
)

// OnMode selects how the length of an "on" period is determined.
type OnMode int

const (
	// ByBytes ends an on period after a sampled number of bytes has been
	// acknowledged by the receiver.
	ByBytes OnMode = iota
	// ByTime ends an on period after a sampled duration, regardless of how
	// many bytes were delivered (maximum-throughput traffic such as
	// videoconferencing).
	ByTime
)

func (m OnMode) String() string {
	switch m {
	case ByBytes:
		return "bytes"
	case ByTime:
		return "time"
	default:
		return fmt.Sprintf("OnMode(%d)", int(m))
	}
}

// Spec describes one sender's offered-load process: alternating "off"
// periods (durations in seconds drawn from Off) and "on" periods whose
// length is drawn from On and interpreted according to Mode.
type Spec struct {
	Mode OnMode
	// On is the distribution of on-period lengths: bytes for ByBytes,
	// seconds for ByTime.
	On Distribution
	// Off is the distribution of off-period durations in seconds.
	Off Distribution
	// StartOn forces the very first period to be an on period with no
	// initial idle wait (used by scenario-style experiments such as the
	// sequence plot of Figure 6).
	StartOn bool
}

// Validate reports whether the spec is usable.
func (s Spec) Validate() error {
	if s.On == nil {
		return fmt.Errorf("workload: Spec.On is nil")
	}
	if s.Off == nil {
		return fmt.Errorf("workload: Spec.Off is nil")
	}
	return nil
}

func (s Spec) String() string {
	return fmt.Sprintf("on[%s]=%s off=%s", s.Mode, s.On, s.Off)
}

// DumbbellDefault returns the design-time traffic model from §5.1: on and
// off durations both exponential with 5-second means, on period measured by
// time.
func DumbbellDefault() Spec {
	return Spec{Mode: ByTime, On: Exponential{MeanValue: 5}, Off: Exponential{MeanValue: 5}}
}

// State is the instantaneous state of a switching process.
type State int

const (
	// Off means the sender has no pending data.
	Off State = iota
	// On means the sender has data to transmit.
	On
)

func (s State) String() string {
	if s == On {
		return "on"
	}
	return "off"
}

// Switcher drives one sender's on/off process. The simulation harness calls
// Start once, and the switcher schedules its own transitions on the engine,
// invoking the callbacks so the attached sender can begin or stop
// transmitting.
type Switcher struct {
	spec   Spec
	rng    *sim.RNG
	engine *sim.Engine

	state       State
	onStarted   sim.Time
	bytesTarget int64 // remaining bytes in the current on period (ByBytes)
	timeTarget  sim.Time

	// onTimer fires the next on transition, offTimer the timed end of an on
	// period (ByTime mode); fixed timers instead of per-transition closures.
	onTimer  *sim.Timer
	offTimer *sim.Timer

	// OnStart is invoked when an on period begins; bytes is the byte budget
	// for ByBytes mode (0 for ByTime mode).
	OnStart func(now sim.Time, bytes int64)
	// OnStop is invoked when an on period ends.
	OnStop func(now sim.Time)

	transitions int
}

// NewSwitcher builds a switcher for one sender. The switcher owns rng from
// here on (Reset reseeds it in place), so each switcher needs its own.
func NewSwitcher(spec Spec, engine *sim.Engine, rng *sim.RNG) (*Switcher, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if engine == nil {
		return nil, fmt.Errorf("workload: nil engine")
	}
	if rng == nil {
		return nil, fmt.Errorf("workload: nil rng")
	}
	s := &Switcher{spec: spec, rng: rng, engine: engine, state: Off}
	s.onTimer = engine.NewTimer(s.turnOn)
	s.offTimer = engine.NewTimer(s.turnOff)
	return s, nil
}

// SetSpec makes the switcher drive spec from its next Reset on, keeping its
// engine, timers, stream and callbacks: a session rebuilding its world on the
// same engine re-targets its switchers this way instead of building new ones.
func (s *Switcher) SetSpec(spec Spec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	s.spec = spec
	return nil
}

// Reset returns the switcher to its just-constructed state for engine-pooled
// reuse (harness.Session), restarting its random stream from seed for the
// next run. Spec, engine, timers and callbacks are kept; any pending
// transition events belong to the engine being reset alongside and never fire.
func (s *Switcher) Reset(seed int64) {
	s.onTimer.Stop()
	s.offTimer.Stop()
	s.rng.Reseed(seed)
	s.state = Off
	s.onStarted = 0
	s.bytesTarget = 0
	s.timeTarget = 0
	s.transitions = 0
}

// State returns the current on/off state.
func (s *Switcher) State() State { return s.state }

// Transitions returns the number of state changes so far (excluding Start).
func (s *Switcher) Transitions() int { return s.transitions }

// Start begins the process at simulated time now. Unless StartOn is set the
// process starts off and schedules its first on transition after a sampled
// off duration.
func (s *Switcher) Start(now sim.Time) {
	if s.spec.StartOn {
		s.turnOn(now)
		return
	}
	s.scheduleOn(now)
}

func (s *Switcher) scheduleOn(now sim.Time) {
	delay := sim.FromSeconds(s.spec.Off.Sample(s.rng))
	s.onTimer.Schedule(now + delay)
}

func (s *Switcher) turnOn(now sim.Time) {
	s.state = On
	s.onStarted = now
	s.transitions++
	var bytes int64
	switch s.spec.Mode {
	case ByBytes:
		bytes = int64(s.spec.On.Sample(s.rng))
		if bytes < 1 {
			bytes = 1
		}
		s.bytesTarget = bytes
	case ByTime:
		dur := sim.FromSeconds(s.spec.On.Sample(s.rng))
		if dur <= 0 {
			dur = sim.Millisecond
		}
		s.timeTarget = dur
		s.offTimer.Schedule(now + dur)
	}
	if s.OnStart != nil {
		s.OnStart(now, bytes)
	}
}

func (s *Switcher) turnOff(now sim.Time) {
	if s.state != On {
		return
	}
	s.state = Off
	s.transitions++
	if s.OnStop != nil {
		s.OnStop(now)
	}
	s.scheduleOn(now)
}

// BytesDelivered informs a ByBytes switcher that n more bytes of its current
// transfer have been acknowledged. Once the byte budget is exhausted the on
// period ends. ByTime switchers ignore this call.
func (s *Switcher) BytesDelivered(now sim.Time, n int64) {
	if s.state != On || s.spec.Mode != ByBytes {
		return
	}
	s.bytesTarget -= n
	if s.bytesTarget <= 0 {
		s.turnOff(now)
	}
}

// ForceOff ends the current on period immediately (used when a simulation
// is being torn down).
func (s *Switcher) ForceOff(now sim.Time) {
	if s.state == On {
		s.turnOff(now)
	}
}
