package workload

import (
	"fmt"

	"repro/internal/sim"
)

// ArrivalSpec describes a flow-arrival process: new flows arrive separated by
// interarrival times drawn from Interarrival (seconds), each carrying a
// transfer size drawn from Size (bytes). An exponential interarrival
// distribution yields Poisson arrivals — the classic open-loop churn model —
// while a constant one yields a deterministic arrival train. The paper's
// ICSI flow-length fit (ICSIFlowLengths) is the natural Size choice.
type ArrivalSpec struct {
	// Interarrival is the distribution of gaps between consecutive arrivals,
	// in seconds.
	Interarrival Distribution
	// Size is the distribution of per-flow transfer sizes, in bytes.
	Size Distribution
	// MaxArrivals, when positive, stops the process after that many arrivals
	// (0 means unlimited).
	MaxArrivals int64
}

// Validate reports whether the spec is usable.
func (s ArrivalSpec) Validate() error {
	if s.Interarrival == nil {
		return fmt.Errorf("workload: ArrivalSpec.Interarrival is nil")
	}
	if s.Size == nil {
		return fmt.Errorf("workload: ArrivalSpec.Size is nil")
	}
	if s.MaxArrivals < 0 {
		return fmt.Errorf("workload: ArrivalSpec.MaxArrivals is negative")
	}
	return nil
}

func (s ArrivalSpec) String() string {
	return fmt.Sprintf("arrivals[inter=%s size=%s]", s.Interarrival, s.Size)
}

// PoissonArrivals returns a Poisson arrival process at the given rate
// (arrivals per second) with the given flow-size distribution.
func PoissonArrivals(ratePerSec float64, size Distribution) ArrivalSpec {
	return ArrivalSpec{Interarrival: Exponential{MeanValue: 1 / ratePerSec}, Size: size}
}

// ArrivalProcess drives one flow class's arrivals on a simulation engine. The
// session calls Start once; the process then schedules itself, invoking
// OnArrival with each new flow's size. Like the Switcher, it draws every
// random value from its own stream, so adding an arrival process to a
// scenario never perturbs the values seen by other stochastic components.
type ArrivalProcess struct {
	spec   ArrivalSpec
	engine *sim.Engine
	rng    *sim.RNG
	timer  *sim.Timer

	arrivals int64

	// OnArrival is invoked at each arrival instant with the new flow's
	// transfer size in bytes (always at least 1).
	OnArrival func(now sim.Time, bytes int64)
}

// NewArrivalProcess builds an arrival process for one flow class. The process
// owns rng from here on (Reset reseeds it in place).
func NewArrivalProcess(spec ArrivalSpec, engine *sim.Engine, rng *sim.RNG) (*ArrivalProcess, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if engine == nil {
		return nil, fmt.Errorf("workload: nil engine")
	}
	if rng == nil {
		return nil, fmt.Errorf("workload: nil rng")
	}
	a := &ArrivalProcess{spec: spec, engine: engine, rng: rng}
	a.timer = engine.NewTimer(a.arrive)
	return a, nil
}

// SetSpec makes the process follow spec from its next Reset on, keeping its
// engine, timer, stream and callback (see Switcher.SetSpec).
func (a *ArrivalProcess) SetSpec(spec ArrivalSpec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	a.spec = spec
	return nil
}

// Reset returns the process to its just-constructed state for engine-pooled
// reuse (scenario.Session), restarting its random stream from seed for the
// next run.
func (a *ArrivalProcess) Reset(seed int64) {
	a.timer.Stop()
	a.rng.Reseed(seed)
	a.arrivals = 0
}

// Arrivals returns the number of arrivals so far.
func (a *ArrivalProcess) Arrivals() int64 { return a.arrivals }

// Start schedules the first arrival one sampled interarrival time after now.
func (a *ArrivalProcess) Start(now sim.Time) {
	a.scheduleNext(now)
}

// Stop cancels any pending arrival.
func (a *ArrivalProcess) Stop() { a.timer.Stop() }

func (a *ArrivalProcess) scheduleNext(now sim.Time) {
	if a.spec.MaxArrivals > 0 && a.arrivals >= a.spec.MaxArrivals {
		return
	}
	gap := sim.FromSeconds(a.spec.Interarrival.Sample(a.rng))
	if gap <= 0 {
		// Degenerate draws still make progress: quantize to the engine tick.
		gap = 1
	}
	a.timer.Schedule(now + gap)
}

// arrive fires one arrival: sample the flow size, notify the consumer, and
// schedule the next arrival. The sampling order (size first, then the next
// gap) is fixed so a class's random stream is consumed identically no matter
// what the consumer does with the arrival.
func (a *ArrivalProcess) arrive(now sim.Time) {
	a.arrivals++
	bytes := int64(a.spec.Size.Sample(a.rng))
	if bytes < 1 {
		bytes = 1
	}
	if a.OnArrival != nil {
		a.OnArrival(now, bytes)
	}
	a.scheduleNext(now)
}
