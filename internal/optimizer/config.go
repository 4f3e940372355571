// Package optimizer implements Remy itself: the offline design procedure of
// §4.3 that searches for the congestion-control rule table (a
// core.WhiskerTree) maximizing the expected objective over a stated network
// model. The protocol designer supplies prior assumptions about the network
// (a ConfigRange), a traffic model, and an objective function; Optimize
// returns a RemyCC.
//
// The search follows the paper's greedy structure: simulate the current
// RemyCC on a set of specimen networks drawn from the model, find the
// most-used rule of the current epoch, improve its action by evaluating a
// geometric ladder of candidate modifications on the same specimens and
// random seeds, and — every K epochs — subdivide the most-used rule at the
// median memory value that triggered it. Candidate evaluations are
// embarrassingly parallel and are spread over a worker pool of goroutines.
package optimizer

import (
	"fmt"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Range is a closed interval of float64 values.
type Range struct {
	Lo, Hi float64
}

// Sample draws uniformly from the range.
func (r Range) Sample(rng *sim.RNG) float64 {
	if r.Hi <= r.Lo {
		return r.Lo
	}
	return rng.Uniform(r.Lo, r.Hi)
}

// Validate reports whether the range is usable.
func (r Range) Validate() error {
	if r.Lo <= 0 || r.Hi < r.Lo {
		return fmt.Errorf("optimizer: invalid range [%g, %g]", r.Lo, r.Hi)
	}
	return nil
}

func (r Range) String() string { return fmt.Sprintf("[%g, %g]", r.Lo, r.Hi) }

// ConfigRange is the protocol designer's prior knowledge about the networks
// the RemyCC will encounter (§3.1) together with the traffic model (§3.2)
// and the simulation budget used during design.
type ConfigRange struct {
	// MinSenders and MaxSenders bound the degree of multiplexing; each
	// specimen draws its sender count uniformly from this range.
	MinSenders, MaxSenders int
	// LinkRateBps is the bottleneck-rate design range in bits per second.
	LinkRateBps Range
	// RTTMs is the round-trip propagation delay design range in
	// milliseconds.
	RTTMs Range

	// Traffic model: senders alternate between exponentially distributed
	// "off" periods and "on" periods measured either in seconds (ByTime) or
	// bytes (ByBytes).
	OnMode        workload.OnMode
	MeanOnSeconds float64
	MeanOnBytes   float64
	MeanOffSecs   float64

	// QueueCapacityPackets is the bottleneck buffer used at design time; the
	// paper's design model uses an effectively unlimited queue.
	QueueCapacityPackets int

	// SpecimenDuration is the simulated duration of each specimen evaluation
	// (the paper uses 100 seconds).
	SpecimenDuration sim.Time
	// Specimens is the number of specimen networks drawn per evaluation
	// (the paper draws at least 16).
	Specimens int
}

// DumbbellDesignRange returns the general-purpose design model of §5.1:
// 1–16 senders, 10–20 Mbps links, 100–200 ms RTTs, exponential on/off with
// 5-second means, unlimited buffering, 100-second specimens.
func DumbbellDesignRange() ConfigRange {
	return ConfigRange{
		MinSenders:           1,
		MaxSenders:           16,
		LinkRateBps:          Range{10e6, 20e6},
		RTTMs:                Range{100, 200},
		OnMode:               workload.ByTime,
		MeanOnSeconds:        5,
		MeanOffSecs:          5,
		QueueCapacityPackets: 100000,
		SpecimenDuration:     100 * sim.Second,
		Specimens:            16,
	}
}

// LinkSpeedDesignRange returns the §5.7 design model used for the 1x and 10x
// prior-knowledge experiment: exactly two senders, 150 ms RTT, and a
// caller-supplied link-speed range.
func LinkSpeedDesignRange(lo, hi float64) ConfigRange {
	c := DumbbellDesignRange()
	c.MinSenders = 2
	c.MaxSenders = 2
	c.LinkRateBps = Range{lo, hi}
	c.RTTMs = Range{150, 150}
	return c
}

// DatacenterDesignRange returns the §5.5 design model: up to 64 senders on a
// 10 Gbps link with 4 ms RTT, 20 MB mean transfers with 100 ms mean off
// periods.
func DatacenterDesignRange() ConfigRange {
	return ConfigRange{
		MinSenders:           1,
		MaxSenders:           64,
		LinkRateBps:          Range{10e9, 10e9},
		RTTMs:                Range{4, 4},
		OnMode:               workload.ByBytes,
		MeanOnBytes:          20e6,
		MeanOffSecs:          0.1,
		QueueCapacityPackets: 100000,
		SpecimenDuration:     2 * sim.Second,
		Specimens:            8,
	}
}

// Validate reports configuration errors.
func (c ConfigRange) Validate() error {
	if c.MinSenders < 1 || c.MaxSenders < c.MinSenders {
		return fmt.Errorf("optimizer: invalid sender range [%d, %d]", c.MinSenders, c.MaxSenders)
	}
	if err := c.LinkRateBps.Validate(); err != nil {
		return fmt.Errorf("optimizer: link rate: %w", err)
	}
	if err := c.RTTMs.Validate(); err != nil {
		return fmt.Errorf("optimizer: rtt: %w", err)
	}
	switch c.OnMode {
	case workload.ByTime:
		if c.MeanOnSeconds <= 0 {
			return fmt.Errorf("optimizer: MeanOnSeconds must be positive for ByTime traffic")
		}
	case workload.ByBytes:
		if c.MeanOnBytes <= 0 {
			return fmt.Errorf("optimizer: MeanOnBytes must be positive for ByBytes traffic")
		}
	default:
		return fmt.Errorf("optimizer: unknown on mode %v", c.OnMode)
	}
	if c.MeanOffSecs <= 0 {
		return fmt.Errorf("optimizer: MeanOffSecs must be positive")
	}
	if c.SpecimenDuration <= 0 {
		return fmt.Errorf("optimizer: SpecimenDuration must be positive")
	}
	if c.Specimens < 1 {
		return fmt.Errorf("optimizer: need at least one specimen")
	}
	return nil
}

// scenarioWorkload converts the traffic model to its declarative form.
func (c ConfigRange) scenarioWorkload() scenario.WorkloadSpec {
	off := scenario.ExponentialDist(c.MeanOffSecs)
	if c.OnMode == workload.ByTime {
		return scenario.ByTimeWorkload(scenario.ExponentialDist(c.MeanOnSeconds), off)
	}
	return scenario.ByBytesWorkload(scenario.ExponentialDist(c.MeanOnBytes), off)
}

// Specimen is one network drawn from the design range: a concrete number of
// senders, link rate, RTT, and the random seed that drives its workload.
type Specimen struct {
	Senders     int
	LinkRateBps float64
	RTTMs       float64
	Seed        int64
}

func (s Specimen) String() string {
	return fmt.Sprintf("specimen{n=%d rate=%.1fMbps rtt=%.0fms seed=%d}",
		s.Senders, s.LinkRateBps/1e6, s.RTTMs, s.Seed)
}

// Sample draws one specimen from the design range.
func (c ConfigRange) Sample(rng *sim.RNG) Specimen {
	return Specimen{
		Senders:     rng.UniformInt(c.MinSenders, c.MaxSenders),
		LinkRateBps: c.LinkRateBps.Sample(rng),
		RTTMs:       c.RTTMs.Sample(rng),
		Seed:        rng.Int63(),
	}
}

// SampleSet draws n specimens from the design range.
func (c ConfigRange) SampleSet(n int, rng *sim.RNG) []Specimen {
	out := make([]Specimen, n)
	for i := range out {
		out[i] = c.Sample(rng)
	}
	return out
}
