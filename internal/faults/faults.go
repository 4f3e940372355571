// Package faults provides deterministic, seeded fault schedules for
// simulated links: timed outages (the link stops serving entirely),
// Gilbert–Elliott two-state burst loss, delay-spike/jitter segments, and
// short rate-droop windows. A Schedule is a pure JSON-round-trippable
// description; compiling it yields a LinkState that a netsim.Link queries at
// runtime through narrow hooks. Like synthesized link traces, every
// stochastic decision (burst-loss chain, jitter draws) comes from a per-link
// RNG derived from the run seed with a dedicated salt, so fault streams are
// decorrelated across links and reproducible across runs and worker counts.
package faults

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// Outage is a timed interval during which the link serves nothing. Packets
// already queued stay queued (and the buffer keeps filling and tail-dropping
// behind them); service resumes when the outage ends.
type Outage struct {
	StartS    float64 `json:"start_s"`
	DurationS float64 `json:"duration_s"`
}

// GilbertElliott is a two-state Markov burst-loss process. Each packet the
// link delivers first transitions the chain (good -> bad with probability
// PGoodBad, bad -> good with PBadGood) and is then dropped with the loss
// probability of the resulting state. StartS/EndS optionally confine the
// process to a window; EndS == 0 means "until the end of the run". The chain
// starts in the good state.
type GilbertElliott struct {
	PGoodBad float64 `json:"p_good_bad"`
	PBadGood float64 `json:"p_bad_good"`
	LossGood float64 `json:"loss_good,omitempty"`
	LossBad  float64 `json:"loss_bad"`
	StartS   float64 `json:"start_s,omitempty"`
	EndS     float64 `json:"end_s,omitempty"`
}

// DelaySpike adds ExtraMs (plus, per packet, a uniform draw in
// [0, JitterMs)) to the propagation delay of every packet the link delivers
// inside the window.
type DelaySpike struct {
	StartS    float64 `json:"start_s"`
	DurationS float64 `json:"duration_s"`
	ExtraMs   float64 `json:"extra_ms"`
	JitterMs  float64 `json:"jitter_ms,omitempty"`
}

// RateDroop scales a fixed-rate link's service rate by Factor (0 < Factor
// <= 1) for the window, e.g. Factor 0.25 quarters the link speed. Trace-
// driven links model rate variation natively and ignore droops.
type RateDroop struct {
	StartS    float64 `json:"start_s"`
	DurationS float64 `json:"duration_s"`
	Factor    float64 `json:"factor"`
}

// Schedule is the full fault plan for one link. The zero value means "no
// faults". Within each category windows must be sorted by start time and
// non-overlapping, which keeps the runtime queries O(1) amortized.
type Schedule struct {
	Outages     []Outage        `json:"outages,omitempty"`
	Loss        *GilbertElliott `json:"loss,omitempty"`
	DelaySpikes []DelaySpike    `json:"delay_spikes,omitempty"`
	RateDroops  []RateDroop     `json:"rate_droops,omitempty"`
}

// Empty reports whether the schedule injects no faults at all.
func (s *Schedule) Empty() bool {
	return s == nil || (len(s.Outages) == 0 && s.Loss == nil &&
		len(s.DelaySpikes) == 0 && len(s.RateDroops) == 0)
}

// checkWindows validates one category's windows: each must have a
// non-negative start and positive duration, and they must be sorted and
// non-overlapping.
func checkWindows(kind string, n int, at func(int) (start, dur float64)) error {
	prevEnd := math.Inf(-1)
	for i := 0; i < n; i++ {
		start, dur := at(i)
		// The negated comparisons also reject NaN.
		if !(start >= 0) || math.IsInf(start, 0) {
			return fmt.Errorf("faults: %s[%d]: start_s %g must be finite and non-negative", kind, i, start)
		}
		if !(dur > 0) || math.IsInf(dur, 0) {
			return fmt.Errorf("faults: %s[%d]: duration_s %g must be finite and positive", kind, i, dur)
		}
		if start < prevEnd {
			return fmt.Errorf("faults: %s[%d]: window starting at %gs overlaps or is out of order with the previous window (ends %gs)", kind, i, start, prevEnd)
		}
		prevEnd = start + dur
	}
	return nil
}

func checkProb(kind string, p float64) error {
	if p < 0 || p > 1 || math.IsNaN(p) {
		return fmt.Errorf("faults: loss: %s %g must be a probability in [0, 1]", kind, p)
	}
	return nil
}

// Validate checks the schedule for well-formedness. A nil or empty schedule
// is valid.
func (s *Schedule) Validate() error {
	if s.Empty() {
		return nil
	}
	if err := checkWindows("outages", len(s.Outages), func(i int) (float64, float64) {
		return s.Outages[i].StartS, s.Outages[i].DurationS
	}); err != nil {
		return err
	}
	if err := checkWindows("delay_spikes", len(s.DelaySpikes), func(i int) (float64, float64) {
		return s.DelaySpikes[i].StartS, s.DelaySpikes[i].DurationS
	}); err != nil {
		return err
	}
	for i, d := range s.DelaySpikes {
		if d.ExtraMs < 0 || d.JitterMs < 0 {
			return fmt.Errorf("faults: delay_spikes[%d]: extra_ms/jitter_ms must be non-negative", i)
		}
		if d.ExtraMs == 0 && d.JitterMs == 0 {
			return fmt.Errorf("faults: delay_spikes[%d]: extra_ms and jitter_ms are both zero", i)
		}
	}
	if err := checkWindows("rate_droops", len(s.RateDroops), func(i int) (float64, float64) {
		return s.RateDroops[i].StartS, s.RateDroops[i].DurationS
	}); err != nil {
		return err
	}
	for i, d := range s.RateDroops {
		if !(d.Factor > 0 && d.Factor <= 1) {
			return fmt.Errorf("faults: rate_droops[%d]: factor %g must be in (0, 1]", i, d.Factor)
		}
	}
	if l := s.Loss; l != nil {
		if err := checkProb("p_good_bad", l.PGoodBad); err != nil {
			return err
		}
		if err := checkProb("p_bad_good", l.PBadGood); err != nil {
			return err
		}
		if err := checkProb("loss_good", l.LossGood); err != nil {
			return err
		}
		if err := checkProb("loss_bad", l.LossBad); err != nil {
			return err
		}
		if l.StartS < 0 {
			return fmt.Errorf("faults: loss: start_s %g is negative", l.StartS)
		}
		if l.EndS != 0 && l.EndS <= l.StartS {
			return fmt.Errorf("faults: loss: end_s %g must exceed start_s %g (or be 0 for open-ended)", l.EndS, l.StartS)
		}
	}
	return nil
}

// window is a compiled [start, end) interval in simulated time.
type window struct {
	start, end sim.Time
}

func (w window) contains(t sim.Time) bool { return t >= w.start && t < w.end }

type spikeWindow struct {
	window
	extra, jitter sim.Time
}

type droopWindow struct {
	window
	factor float64
}

type geParams struct {
	window                                window // end = max Time when open-ended
	pGoodBad, pBadGood, lossGood, lossBad float64
}

// LinkState is the compiled, runtime form of a Schedule for one link. It is
// attached to a netsim.Link and queried from the link's event handlers; all
// methods assume the queries arrive in non-decreasing simulated time (the
// engine clock is monotone within a run), which lets window lookups advance
// a cursor instead of searching. Reset rewinds the cursors and reseeds the
// RNG, making a warm-started session byte-identical to a fresh one.
type LinkState struct {
	outages []window
	spikes  []spikeWindow
	droops  []droopWindow
	loss    *geParams

	rng      *sim.RNG
	outIdx   int
	spikeIdx int
	droopIdx int
	geBad    bool
}

// Compile validates the schedule and converts it to a LinkState. The state
// must be Reset with a seed before use. Compiling an empty schedule returns
// nil (attach nothing to the link).
func Compile(s *Schedule) (*LinkState, error) { return Recompile(nil, s) }

// Recompile is Compile building the state out of spare, a state an earlier
// world left behind, when spare is not nil: its random stream and window
// tables are reused. An empty schedule returns nil and leaves spare unused.
func Recompile(spare *LinkState, s *Schedule) (*LinkState, error) {
	if s.Empty() {
		return nil, nil
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	ls := spare
	if ls == nil {
		ls = &LinkState{rng: sim.NewRNG(0)}
	}
	loss := ls.loss
	*ls = LinkState{rng: ls.rng, outages: ls.outages[:0], spikes: ls.spikes[:0], droops: ls.droops[:0]}
	for _, o := range s.Outages {
		start := sim.FromSeconds(o.StartS)
		ls.outages = append(ls.outages, window{start, start + sim.FromSeconds(o.DurationS)})
	}
	for _, d := range s.DelaySpikes {
		start := sim.FromSeconds(d.StartS)
		ls.spikes = append(ls.spikes, spikeWindow{
			window: window{start, start + sim.FromSeconds(d.DurationS)},
			extra:  sim.FromMillis(d.ExtraMs),
			jitter: sim.FromMillis(d.JitterMs),
		})
	}
	for _, d := range s.RateDroops {
		start := sim.FromSeconds(d.StartS)
		ls.droops = append(ls.droops, droopWindow{
			window: window{start, start + sim.FromSeconds(d.DurationS)},
			factor: d.Factor,
		})
	}
	if l := s.Loss; l != nil {
		end := sim.Time(math.MaxInt64)
		if l.EndS != 0 {
			end = sim.FromSeconds(l.EndS)
		}
		if loss == nil {
			loss = new(geParams)
		}
		*loss = geParams{
			window:   window{sim.FromSeconds(l.StartS), end},
			pGoodBad: l.PGoodBad,
			pBadGood: l.PBadGood,
			lossGood: l.LossGood,
			lossBad:  l.LossBad,
		}
		ls.loss = loss
	}
	return ls, nil
}

// MustCompile is Compile for schedules already known valid; it panics on
// error.
func MustCompile(s *Schedule) *LinkState {
	ls, err := Compile(s)
	if err != nil {
		panic(err)
	}
	return ls
}

// Reset rewinds every window cursor, restarts the burst-loss chain in the
// good state, and reseeds the RNG in place. Call once per run before the
// engine starts.
func (ls *LinkState) Reset(seed int64) {
	ls.rng.Reseed(seed)
	ls.outIdx, ls.spikeIdx, ls.droopIdx = 0, 0, 0
	ls.geBad = false
}

// Outage reports whether the link is down at now, and if so when the outage
// ends (service may resume at exactly that instant).
func (ls *LinkState) Outage(now sim.Time) (down bool, until sim.Time) {
	for ls.outIdx < len(ls.outages) && now >= ls.outages[ls.outIdx].end {
		ls.outIdx++
	}
	if ls.outIdx < len(ls.outages) && ls.outages[ls.outIdx].contains(now) {
		return true, ls.outages[ls.outIdx].end
	}
	return false, 0
}

// RateScale returns the service-rate multiplier at now: 1 outside droop
// windows, the droop factor inside one.
func (ls *LinkState) RateScale(now sim.Time) float64 {
	for ls.droopIdx < len(ls.droops) && now >= ls.droops[ls.droopIdx].end {
		ls.droopIdx++
	}
	if ls.droopIdx < len(ls.droops) && ls.droops[ls.droopIdx].contains(now) {
		return ls.droops[ls.droopIdx].factor
	}
	return 1
}

// ExtraDelay returns the additional propagation delay for a packet delivered
// at now: zero outside spike windows; inside one, the window's extra plus a
// per-packet uniform jitter draw in [0, jitter).
func (ls *LinkState) ExtraDelay(now sim.Time) sim.Time {
	for ls.spikeIdx < len(ls.spikes) && now >= ls.spikes[ls.spikeIdx].end {
		ls.spikeIdx++
	}
	if ls.spikeIdx < len(ls.spikes) && ls.spikes[ls.spikeIdx].contains(now) {
		w := ls.spikes[ls.spikeIdx]
		d := w.extra
		if w.jitter > 0 {
			d += ls.rng.UniformTime(0, w.jitter)
		}
		return d
	}
	return 0
}

// DropDelivered steps the Gilbert–Elliott chain for one delivered packet and
// reports whether the packet is lost. Outside the loss window (or with no
// loss process configured) it neither draws randomness nor drops.
func (ls *LinkState) DropDelivered(now sim.Time) bool {
	l := ls.loss
	if l == nil || !l.window.contains(now) {
		return false
	}
	if ls.geBad {
		if ls.rng.Float64() < l.pBadGood {
			ls.geBad = false
		}
	} else {
		if ls.rng.Float64() < l.pGoodBad {
			ls.geBad = true
		}
	}
	p := l.lossGood
	if ls.geBad {
		p = l.lossBad
	}
	return p > 0 && ls.rng.Float64() < p
}

// faultSalt decorrelates fault seeds from the run seed and from trace seeds
// ("faultgen" in ASCII, mirroring the trace generator's "tracegen" salt).
const faultSalt = 0x6661756c7467656e

// DeriveSeed maps a run seed and a link index to the fault-RNG seed for that
// link. Mirroring trace-seed derivation, link 0 uses the plain salted form so
// single-link scenarios are unaffected by how many other links exist, and
// each additional link gets a decorrelated stream.
func DeriveSeed(runSeed int64, link int) int64 {
	s := sim.SplitMix64(uint64(runSeed) ^ faultSalt)
	if link > 0 {
		s = sim.SplitMix64(s + uint64(link))
	}
	return int64(s & math.MaxInt64)
}
