// Package traces models time-varying cellular downlinks. The paper drives
// its cellular experiments (§5.3) with packet traces captured by saturating
// the Verizon and AT&T LTE downlinks while mobile; those captures are not
// publicly redistributable, so this package substitutes a synthetic cellular
// model that produces the same artifact the simulator consumes: a schedule
// of delivery opportunities, each permitting one MTU-sized packet to leave
// the bottleneck.
//
// The synthetic model is a bounded mean-reverting random walk on the link
// rate with occasional outages, discretised into per-packet delivery
// opportunities. It preserves the properties the experiments depend on: the
// rate varies over roughly 0–50 Mbps on sub-second to second timescales,
// frequently leaves the RemyCC design range, and exhibits idle gaps during
// which queues drain or build. See DESIGN.md §3 for the substitution record.
package traces

import (
	"bufio"
	"fmt"
	"io"
	"strconv"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// CellularModel parameterizes the synthetic trace generator.
type CellularModel struct {
	// Name labels the model ("verizon-lte", "att-lte").
	Name string
	// MeanRateBps is the long-run average link rate.
	MeanRateBps float64
	// MaxRateBps caps the instantaneous rate.
	MaxRateBps float64
	// MinRateBps floors the instantaneous rate outside outages.
	MinRateBps float64
	// VolatilityBps is the standard deviation of the per-step rate change.
	VolatilityBps float64
	// Reversion in [0,1] pulls the rate back toward the mean each step.
	Reversion float64
	// StepInterval is the duration between rate re-draws.
	StepInterval sim.Time
	// OutageProbability is the per-step probability of entering an outage.
	OutageProbability float64
	// OutageDuration is the mean outage length.
	OutageDuration sim.Time
	// PacketBytes is the packet size used to convert rates into delivery
	// opportunities.
	PacketBytes int
}

// VerizonLTEModel returns parameters tuned to resemble the Verizon LTE
// downlink used in §5.3: averages near 10–15 Mbps with swings between a few
// hundred kbps and ~50 Mbps.
func VerizonLTEModel() CellularModel {
	return CellularModel{
		Name:              "verizon-lte",
		MeanRateBps:       12e6,
		MaxRateBps:        50e6,
		MinRateBps:        0.2e6,
		VolatilityBps:     6e6,
		Reversion:         0.15,
		StepInterval:      100 * sim.Millisecond,
		OutageProbability: 0.01,
		OutageDuration:    400 * sim.Millisecond,
		PacketBytes:       netsim.MTU,
	}
}

// ATTLTEModel returns parameters resembling the AT&T LTE downlink: lower and
// burstier than Verizon, with more frequent outages.
func ATTLTEModel() CellularModel {
	return CellularModel{
		Name:              "att-lte",
		MeanRateBps:       8e6,
		MaxRateBps:        35e6,
		MinRateBps:        0.1e6,
		VolatilityBps:     3.5e6,
		Reversion:         0.15,
		StepInterval:      100 * sim.Millisecond,
		OutageProbability: 0.02,
		OutageDuration:    600 * sim.Millisecond,
		PacketBytes:       netsim.MTU,
	}
}

// Validate reports configuration errors.
func (m CellularModel) Validate() error {
	if m.MeanRateBps <= 0 || m.MaxRateBps <= 0 || m.MaxRateBps < m.MeanRateBps {
		return fmt.Errorf("traces: inconsistent rate parameters")
	}
	if m.StepInterval <= 0 {
		return fmt.Errorf("traces: StepInterval must be positive")
	}
	if m.PacketBytes <= 0 {
		return fmt.Errorf("traces: PacketBytes must be positive")
	}
	if m.OutageProbability < 0 || m.OutageProbability > 1 {
		return fmt.Errorf("traces: OutageProbability must be in [0,1]")
	}
	return nil
}

// Generate produces the delivery-opportunity schedule for the given duration
// using the supplied random stream. Opportunities are strictly increasing
// times at which one packet of PacketBytes may be delivered.
func (m CellularModel) Generate(duration sim.Time, rng *sim.RNG) ([]sim.Time, error) {
	return m.Append(nil, duration, rng)
}

// Append is Generate appending the schedule to dst and returning the extended
// slice, so a caller that keeps a schedule can generate its next one into the
// same memory.
func (m CellularModel) Append(dst []sim.Time, duration sim.Time, rng *sim.RNG) ([]sim.Time, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if duration <= 0 {
		return nil, fmt.Errorf("traces: duration must be positive")
	}
	opportunities := dst
	rate := m.MeanRateBps
	var outageUntil sim.Time
	// carry is the fractional packet accumulated at the current rate.
	carry := 0.0
	for start := sim.Time(0); start < duration; start += m.StepInterval {
		// Rate evolution: mean reversion plus Gaussian innovation.
		rate += m.Reversion*(m.MeanRateBps-rate) + rng.Normal(0, m.VolatilityBps)
		if rate < m.MinRateBps {
			rate = m.MinRateBps
		}
		if rate > m.MaxRateBps {
			rate = m.MaxRateBps
		}
		// Outage process.
		if start >= outageUntil && rng.Float64() < m.OutageProbability {
			outageUntil = start + rng.ExpTime(m.OutageDuration)
		}
		if start < outageUntil {
			continue
		}
		// Convert the rate over this step into delivery opportunities.
		packetsPerStep := rate*m.StepInterval.Seconds()/(8*float64(m.PacketBytes)) + carry
		n := int(packetsPerStep)
		carry = packetsPerStep - float64(n)
		if n <= 0 {
			continue
		}
		gap := m.StepInterval / sim.Time(n)
		if gap < 1 {
			gap = 1
		}
		for i := 0; i < n; i++ {
			at := start + sim.Time(i)*gap
			if at >= duration {
				break
			}
			opportunities = append(opportunities, at)
		}
	}
	if len(opportunities) == len(dst) {
		return nil, fmt.Errorf("traces: model produced no delivery opportunities")
	}
	return opportunities, nil
}

// AverageRateBps computes the long-run average delivery rate of a schedule,
// which the XCP router needs as its capacity estimate for trace-driven links
// (§5.3 footnote: XCP is supplied with the long-term average link speed).
func AverageRateBps(trace []sim.Time, packetBytes int, duration sim.Time) float64 {
	if duration <= 0 || len(trace) == 0 {
		return 0
	}
	return float64(len(trace)) * float64(packetBytes) * 8 / duration.Seconds()
}

// Write serializes a schedule as one microsecond timestamp per line, the
// same format ReadTrace parses. This lets cmd/tracegen produce files that
// can be inspected or replaced with real captures.
func Write(w io.Writer, trace []sim.Time) error {
	bw := bufio.NewWriter(w)
	for _, t := range trace {
		if _, err := fmt.Fprintln(bw, int64(t)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses a schedule written by Write (or a real capture converted to
// microsecond delivery timestamps, one per line, LF or CRLF). A delivery
// schedule starts at time zero, so negative timestamps are refused, as are
// decreasing ones, lines that are not integers and lines too long to scan;
// whatever Read accepts, Write writes back in a form Read returns unchanged.
func Read(r io.Reader) ([]sim.Time, error) {
	var out []sim.Time
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if text == "" {
			continue
		}
		v, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("traces: line %d: %w", line, err)
		}
		if v < 0 {
			return nil, fmt.Errorf("traces: line %d: negative timestamp %d", line, v)
		}
		if len(out) > 0 && sim.Time(v) < out[len(out)-1] {
			return nil, fmt.Errorf("traces: line %d: timestamps must be non-decreasing", line)
		}
		out = append(out, sim.Time(v))
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("traces: line %d: %w", line+1, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("traces: empty trace")
	}
	return out, nil
}
