// Package scenario is the one way to describe and execute a simulation run.
//
// A Spec is a fully declarative description of a run — topology (link rate or
// cellular trace model), bottleneck queue discipline, per-flow protocol and
// workload, duration, seed and repetition count. Specs round-trip through
// JSON, so experiment suites can be files instead of binaries, and are built
// either with functional options (scenario.New) or by decoding a file
// (scenario.ReadFile).
//
// Names in a Spec (protocol schemes, queue kinds, link models) are resolved
// against a Registry; the Default registry knows every scheme, AQM and
// cellular model in the repository, and experiments clone it to add RemyCCs
// trained in memory. A Runner executes a batch of Specs across a worker pool
// — one sim.Engine per run, as the engine requires — with deterministic
// per-repetition seed derivation, so the same Spec and seed produce identical
// results regardless of worker count.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/cc"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// LinkSpec describes the bottleneck link.
type LinkSpec struct {
	// Model selects the link model: "" or "fixed" for a constant-rate link,
	// or a registered trace model ("verizon", "att") that synthesizes a fresh
	// delivery-opportunity trace per repetition.
	Model string `json:"model,omitempty"`
	// RateBps is the link rate for the fixed model.
	RateBps float64 `json:"rate_bps,omitempty"`
	// TraceLoop repeats a trace when the run outlasts it.
	TraceLoop bool `json:"trace_loop,omitempty"`
	// XCPCapacityBps overrides the capacity advertised to an XCP bottleneck;
	// trace-driven links default to the trace's long-term average rate.
	XCPCapacityBps float64 `json:"xcp_capacity_bps,omitempty"`

	// Trace, when non-empty, is an explicit delivery-opportunity schedule
	// that bypasses the model (programmatic use; not part of the JSON form).
	Trace []sim.Time `json:"-"`
}

// QueueSpec describes the bottleneck queue discipline.
type QueueSpec struct {
	// Kind names a registered queue discipline ("droptail", "sfqcodel",
	// "xcp", "ecn"). Empty means the default implied by the flows' protocols
	// ("droptail" when no protocol asks for router assistance).
	Kind string `json:"kind,omitempty"`
	// CapacityPackets is the buffer size; 0 means 1000 packets.
	CapacityPackets int `json:"capacity_packets,omitempty"`
	// ECNThresholdPackets is the marking threshold for the "ecn" kind;
	// 0 means 65 packets.
	ECNThresholdPackets int `json:"ecn_threshold_packets,omitempty"`
}

// FlowSpec describes one sender-receiver pair (or Count identical pairs).
type FlowSpec struct {
	// Scheme names a registered protocol ("newreno", "cubic", "remy", ...).
	Scheme string `json:"scheme"`
	// RemyCC is the rule-table JSON path for file-driven "remy" flows.
	RemyCC string `json:"remycc,omitempty"`
	// Count expands this entry into Count identical flows; 0 means 1.
	Count int `json:"count,omitempty"`
	// RTTMs is the two-way propagation delay in milliseconds.
	RTTMs float64 `json:"rtt_ms"`
	// Workload is the on/off offered-load process.
	Workload WorkloadSpec `json:"workload"`
	// RateBps is the send rate for the unresponsive "cbr" scheme (ignored by
	// every other scheme).
	RateBps float64 `json:"rate_bps,omitempty"`
	// Path routes the flow across a Topology spec by link name (forward
	// direction). Required when the spec declares a Topology; must be empty
	// otherwise.
	Path []string `json:"path,omitempty"`
	// ReversePath routes the flow's acknowledgments. Empty means the paper's
	// uncongested pure-delay return path.
	ReversePath []string `json:"reverse_path,omitempty"`

	// Algorithm, when set, overrides the registry lookup with a programmatic
	// constructor (the optimizer injects usage-recording senders this way).
	// It is not part of the JSON form.
	Algorithm func() cc.Algorithm `json:"-"`

	// specMTU carries the spec's effective packet size into protocol
	// factories at compile time (the cbr factory sizes its pacing gap with
	// it). Set by Compile; not part of the JSON form.
	specMTU int
}

// Spec is a complete declarative simulation scenario.
type Spec struct {
	// Name labels the spec in results and logs.
	Name string `json:"name,omitempty"`
	// Description documents the scenario for human readers of spec files; it
	// has no effect on execution.
	Description string `json:"description,omitempty"`
	// Link is the bottleneck link description (single-bottleneck form).
	// Ignored when Topology is set.
	Link LinkSpec `json:"link"`
	// Queue is the bottleneck queue discipline. For a Topology spec it is the
	// default for links that do not declare their own queue.
	Queue QueueSpec `json:"queue,omitempty"`
	// Topology, when set, replaces the single bottleneck with a directed
	// graph of nodes and links; every flow then routes over it via Path (and
	// optionally ReversePath).
	Topology *TopologySpec `json:"topology,omitempty"`
	// Flows lists the senders.
	Flows []FlowSpec `json:"flows"`
	// Churn, when set, adds dynamically arriving flow classes: each class
	// spawns a flow per arrival and retires it on completion, reporting flow
	// completion times. A spec needs static Flows, a Churn section, or both.
	Churn *ChurnSpec `json:"churn,omitempty"`
	// Faults, when set, attaches deterministic fault schedules (outages,
	// burst loss, delay spikes, rate droops) to the spec's links. Strictly
	// additive: a spec without the section schedules the byte-identical event
	// sequence it always has.
	Faults *FaultsSpec `json:"faults,omitempty"`
	// DurationSeconds is the simulated length of each repetition.
	DurationSeconds float64 `json:"duration_seconds"`
	// Seed is the base random seed; repetition seeds derive from it.
	Seed int64 `json:"seed,omitempty"`
	// Repetitions is the number of independent runs; 0 means 1.
	Repetitions int `json:"repetitions,omitempty"`
	// MTU is the packet size in bytes; 0 means the simulator default.
	MTU int `json:"mtu,omitempty"`

	// SkipSummaries suppresses the per-result throughput/delay summary
	// computation. Batch consumers that read the raw flow metrics directly
	// (the optimizer scores thousands of candidate runs per round) set this
	// to keep the hot loop free of per-run slice allocations. Not part of
	// the JSON form.
	SkipSummaries bool `json:"-"`

	// OnDeliver, if set, observes every packet delivered to a receiver
	// (sequence plots). Invoked from the worker goroutine executing the run,
	// so it is only allowed on single-repetition specs (Validate rejects it
	// otherwise — with several repetitions in flight the callback would race
	// against itself). Specs batched into one Runner call must not share a
	// stateful hook either: each spec runs on its own worker. Not part of
	// the JSON form.
	OnDeliver func(p *netsim.Packet, now sim.Time) `json:"-"`
}

// Duration returns the per-repetition simulated duration.
func (s Spec) Duration() sim.Time { return sim.FromSeconds(s.DurationSeconds) }

// Reps returns the effective repetition count (at least 1).
func (s Spec) Reps() int {
	if s.Repetitions < 1 {
		return 1
	}
	return s.Repetitions
}

// NumFlows returns the total flow count after expanding Count fields.
func (s Spec) NumFlows() int {
	n := 0
	for _, f := range s.Flows {
		c := f.Count
		if c < 1 {
			c = 1
		}
		n += c
	}
	return n
}

// validate reports out-of-range queue parameters (zero means "default").
func (q QueueSpec) validate() error {
	if q.CapacityPackets < 0 {
		return fmt.Errorf("negative capacity_packets %d", q.CapacityPackets)
	}
	if q.ECNThresholdPackets < 0 {
		return fmt.Errorf("negative ecn_threshold_packets %d", q.ECNThresholdPackets)
	}
	return nil
}

// Validate reports structural errors that do not require a registry (name
// resolution happens at compile time).
func (s Spec) Validate() error { return s.validate(s.lower()) }

// validate is Validate over the already-lowered link list, so Compile lowers
// once.
func (s Spec) validate(w lowered) error {
	if len(s.Flows) == 0 && (s.Churn == nil || len(s.Churn.Classes) == 0) {
		return fmt.Errorf("scenario: spec %q has no flows", s.Name)
	}
	if s.Churn != nil {
		if err := s.Churn.validate(s.Name); err != nil {
			return err
		}
	}
	if s.DurationSeconds <= 0 {
		return fmt.Errorf("scenario: spec %q needs a positive duration", s.Name)
	}
	if s.Repetitions < 0 {
		return fmt.Errorf("scenario: spec %q has negative repetitions", s.Name)
	}
	if s.OnDeliver != nil && s.Reps() > 1 {
		return fmt.Errorf("scenario: spec %q sets OnDeliver with %d repetitions; the hook would race across workers (use one repetition per spec)", s.Name, s.Reps())
	}
	if s.Faults != nil {
		if err := s.Faults.validate(s.Name, s.Topology); err != nil {
			return err
		}
	}
	if s.MTU < 0 {
		return fmt.Errorf("scenario: spec %q has negative mtu %d", s.Name, s.MTU)
	}
	if err := s.Queue.validate(); err != nil {
		return fmt.Errorf("scenario: spec %q queue: %w", s.Name, err)
	}
	if s.Topology != nil {
		if err := s.Topology.Validate(s.Name); err != nil {
			return err
		}
		if err := s.Topology.validateFlowRoutes(s.Name, s.Flows); err != nil {
			return err
		}
		if s.Churn != nil {
			if err := s.Topology.validateChurnRoutes(s.Name, s.Churn.Classes); err != nil {
				return err
			}
		}
	} else {
		for i, f := range s.Flows {
			if len(f.Path) > 0 || len(f.ReversePath) > 0 {
				return fmt.Errorf("scenario: spec %q flow %d routes over links but the spec has no topology", s.Name, i)
			}
		}
		if s.Churn != nil {
			for ci, c := range s.Churn.Classes {
				if len(c.Path) > 0 || len(c.ReversePath) > 0 {
					return fmt.Errorf("scenario: spec %q churn class %d routes over links but the spec has no topology", s.Name, ci)
				}
			}
		}
	}
	for _, l := range w.links {
		if l.RateBps < 0 || l.XCPCapacityBps < 0 {
			return fmt.Errorf("scenario: spec %q link %q has a negative rate_bps or xcp_capacity_bps", s.Name, l.Name)
		}
		if len(l.trace) == 0 && !l.synthesized() && l.RateBps == 0 {
			return fmt.Errorf("scenario: spec %q link %q needs a positive rate_bps, a trace or a trace model", s.Name, l.Name)
		}
		if err := l.Queue.validate(); err != nil {
			return fmt.Errorf("scenario: spec %q link %q queue: %w", s.Name, l.Name, err)
		}
	}
	for i, f := range s.Flows {
		if f.Scheme == "" && f.Algorithm == nil {
			return fmt.Errorf("scenario: spec %q flow %d has no scheme", s.Name, i)
		}
		if f.RTTMs < 0 {
			return fmt.Errorf("scenario: spec %q flow %d has negative RTT", s.Name, i)
		}
		if f.Count < 0 {
			return fmt.Errorf("scenario: spec %q flow %d has negative count", s.Name, i)
		}
		if err := f.Workload.Validate(); err != nil {
			return fmt.Errorf("scenario: spec %q flow %d: %w", s.Name, i, err)
		}
	}
	return nil
}

// Marshal encodes the spec as indented JSON.
func (s Spec) Marshal() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// Unmarshal decodes a spec from JSON. Unknown keys are ignored (the lenient
// form, for forward compatibility); use UnmarshalStrict to reject them.
func Unmarshal(data []byte) (Spec, error) {
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return Spec{}, fmt.Errorf("scenario: decoding spec: %w", err)
	}
	return s, nil
}

// UnmarshalStrict decodes a spec from JSON, rejecting unknown keys, so a
// typo'd field name ("durations_seconds") fails loudly instead of silently
// leaving the default in place. Interactive consumers of hand-written spec
// files (cmd/simulate) use this form.
func UnmarshalStrict(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("scenario: decoding spec: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Spec{}, fmt.Errorf("scenario: decoding spec: trailing data after the JSON document")
	}
	return s, nil
}

// ReadFile loads one spec from a JSON file (lenient decoding).
func ReadFile(path string) (Spec, error) {
	return readFileWith(path, Unmarshal)
}

// ReadFileStrict loads one spec from a JSON file, rejecting unknown keys.
func ReadFileStrict(path string) (Spec, error) {
	return readFileWith(path, UnmarshalStrict)
}

func readFileWith(path string, decode func([]byte) (Spec, error)) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, fmt.Errorf("scenario: %w", err)
	}
	s, err := decode(data)
	if err != nil {
		return Spec{}, fmt.Errorf("scenario: %s: %w", path, err)
	}
	return s, nil
}

// WriteFile saves the spec as a JSON file.
func (s Spec) WriteFile(path string) error {
	data, err := s.Marshal()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Option mutates a Spec under construction.
type Option func(*Spec)

// New builds a Spec from functional options. The zero spec has a DropTail
// queue, one repetition and no flows; callers add at least one flow, a
// duration and a link.
func New(opts ...Option) Spec {
	var s Spec
	for _, opt := range opts {
		opt(&s)
	}
	return s
}

// WithName labels the spec.
func WithName(name string) Option { return func(s *Spec) { s.Name = name } }

// WithLink sets a fixed-rate bottleneck.
func WithLink(rateBps float64) Option {
	return func(s *Spec) { s.Link.Model = ""; s.Link.RateBps = rateBps }
}

// WithLinkModel selects a registered trace-driven link model ("verizon",
// "att"); a fresh trace is synthesized per repetition.
func WithLinkModel(model string) Option {
	return func(s *Spec) { s.Link.Model = model }
}

// WithQueue sets the bottleneck queue kind and capacity.
func WithQueue(kind string, capacityPackets int) Option {
	return func(s *Spec) { s.Queue.Kind = kind; s.Queue.CapacityPackets = capacityPackets }
}

// WithECNThreshold sets the marking threshold for the "ecn" queue kind.
func WithECNThreshold(packets int) Option {
	return func(s *Spec) { s.Queue.ECNThresholdPackets = packets }
}

// WithDuration sets the per-repetition simulated duration in seconds.
func WithDuration(seconds float64) Option {
	return func(s *Spec) { s.DurationSeconds = seconds }
}

// WithSeed sets the base random seed.
func WithSeed(seed int64) Option { return func(s *Spec) { s.Seed = seed } }

// WithRepetitions sets the number of independent runs.
func WithRepetitions(n int) Option { return func(s *Spec) { s.Repetitions = n } }

// WithMTU sets the packet size in bytes.
func WithMTU(mtu int) Option { return func(s *Spec) { s.MTU = mtu } }

// WithFlow appends one flow entry.
func WithFlow(f FlowSpec) Option {
	return func(s *Spec) { s.Flows = append(s.Flows, f) }
}

// WithFlows appends n identical flows running the named scheme.
func WithFlows(n int, scheme string, rttMs float64, w WorkloadSpec) Option {
	return func(s *Spec) {
		s.Flows = append(s.Flows, FlowSpec{Scheme: scheme, Count: n, RTTMs: rttMs, Workload: w})
	}
}

// WithoutSummaries suppresses the per-result throughput/delay summaries
// (programmatic use only; for batch consumers that read raw flow metrics).
func WithoutSummaries() Option {
	return func(s *Spec) { s.SkipSummaries = true }
}

// WithDescription documents the spec for human readers of spec files.
func WithDescription(text string) Option {
	return func(s *Spec) { s.Description = text }
}

// WithTopology replaces the single bottleneck with a directed-graph topology;
// flows added afterwards must route over it via their Path field.
func WithTopology(t TopologySpec) Option {
	return func(s *Spec) { s.Topology = &t }
}

// WithOnDeliver installs a delivery observer (programmatic use only).
func WithOnDeliver(fn func(p *netsim.Packet, now sim.Time)) Option {
	return func(s *Spec) { s.OnDeliver = fn }
}
