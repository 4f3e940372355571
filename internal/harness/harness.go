// Package harness assembles complete simulation runs from the lower-level
// pieces: it wires congestion-control transports, workload switchers and a
// network of named links (the paper's dumbbell is the one-link case) together,
// runs the simulation, and reports per-flow metrics. Both the Remy optimizer
// (which scores candidate rule tables on specimen networks) and the experiment
// harness (which regenerates the paper's tables and figures) are built on it.
package harness

import (
	"fmt"

	"repro/internal/cc"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// FlowSpec describes one sender-receiver pair in a scenario.
type FlowSpec struct {
	// RTTMs is the flow's two-way propagation delay in milliseconds
	// (excluding transmission and queueing and the per-link delays of any
	// multi-link route).
	RTTMs float64
	// Workload is the on/off offered-load process.
	Workload workload.Spec
	// NewAlgorithm constructs the congestion-control algorithm for this
	// flow. It is invoked once per world a session builds (NewSession or
	// Rebuild; harness.Run builds one session per call), and the instance is
	// reused across the world's runs with Reset called at each flow start —
	// algorithms must rewind completely in Reset, a property pinned by
	// TestSessionReuseMatchesFresh. Closures may capture per-world state (the
	// optimizer attaches usage recorders this way).
	NewAlgorithm func() cc.Algorithm
	// Path routes the flow across Scenario.Links by link name; every flow has
	// one (a dumbbell flow's is the single bottleneck). ReversePath routes its
	// acknowledgments; empty gives the flow the paper's uncongested pure-delay
	// ACK return path.
	Path        []string
	ReversePath []string
}

// LinkDef describes one directed link of a scenario.
type LinkDef struct {
	// Name identifies the link in flow routes.
	Name string
	// RateBps is the service rate; ignored when Trace is set.
	RateBps float64
	// Trace makes the link trace-driven (cellular experiments).
	Trace     []sim.Time
	TraceLoop bool
	// DelayMs is the link's one-way propagation delay in milliseconds.
	DelayMs float64
	// NewQueue builds the link's queue discipline for this run. The scenario
	// package compiles registry-resolved queue disciplines into this hook, so
	// new AQMs plug in without touching the harness. Queues exposing a
	// Start(sim.Time) method (the XCP router's control loop) are started
	// automatically.
	NewQueue func(engine *sim.Engine) (netsim.Queue, error)
	// QueueKey, when not nil, declares NewQueue a pure function of it: links
	// with equal keys get queues of the same discipline and parameters. A
	// session rebuilding its world (Session.Rebuild) then reuses a queue an
	// earlier world on its engine built under an equal key, reset, instead
	// of calling NewQueue. Leave it nil for a factory with state or side
	// effects of its own. A key must be comparable.
	QueueKey any
	// Faults, when set, attaches a deterministic fault schedule to the link
	// (outages, burst loss, delay spikes, rate droops). The schedule's RNG is
	// reseeded per run from the run seed.
	Faults *faults.Schedule
}

// LinkResult reports one link's counters from one run.
type LinkResult struct {
	Name           string
	Delivered      int64
	DeliveredBytes int64
	Drops          int64
	// FaultDrops counts packets destroyed by fault-injected burst loss after
	// this link served them (zero for fault-free links).
	FaultDrops int64
}

// Scenario is a complete simulation configuration.
type Scenario struct {
	// Links is the world: every flow routes over these named links via
	// Path/ReversePath. The first link is the "primary" one whose delivery
	// counter feeds Result.Delivered; the dumbbell is the one-link case.
	Links []LinkDef
	// AckBytes is the acknowledgment packet size on reverse-path links
	// (netsim.AckBytes if zero).
	AckBytes int

	MTU      int
	Duration sim.Time
	Flows    []FlowSpec

	// Churn lists classes of dynamically arriving flows: each class spawns a
	// fresh flow per arrival (its size drawn from the class's distribution)
	// and retires it once the transfer completes, recording the flow
	// completion time. Static Flows and churn classes may coexist; a scenario
	// needs at least one of the two. In the engine the static list is just
	// the degenerate churn case — flows that exist from t=0 and never
	// complete.
	Churn []ChurnClass
	// MaxLiveFlows caps the concurrently live churn population across all
	// classes; arrivals beyond the cap are rejected (counted per class, not
	// deferred). 0 means DefaultMaxLiveFlows. Static flows do not count
	// against the cap.
	MaxLiveFlows int

	// OnDeliver, if set, observes every packet delivered to a receiver
	// (sequence plots such as Figure 6).
	OnDeliver func(p *netsim.Packet, now sim.Time)
}

// DefaultMaxLiveFlows is the churn population cap when the scenario does not
// set one: large enough for heavy offered loads, small enough that an
// overload cannot grow state without bound.
const DefaultMaxLiveFlows = 1024

// ChurnClass describes one class of dynamically arriving flows: an arrival
// process (Poisson when Interarrival is exponential), a flow-size
// distribution, and the path/scheme every spawned flow uses.
type ChurnClass struct {
	// Interarrival is the distribution of gaps between arrivals, in seconds.
	Interarrival workload.Distribution
	// Size is the distribution of per-flow transfer sizes, in bytes.
	Size workload.Distribution
	// MaxArrivals stops the class after that many arrivals (0 = unlimited).
	MaxArrivals int64
	// RTTMs is the flows' two-way access propagation delay in milliseconds.
	RTTMs float64
	// NewAlgorithm constructs the congestion-control algorithm for one
	// spawned flow. A retired flow's apparatus is reused, algorithm included
	// (it is Reset at each spawn), by the class's later arrivals in the same
	// world, so it is invoked about once per concurrently-live flow, not once
	// per arrival.
	NewAlgorithm func() cc.Algorithm
	// Path and ReversePath route spawned flows across Scenario.Links, exactly
	// as in FlowSpec.
	Path        []string
	ReversePath []string
}

// Validate reports configuration errors.
func (s Scenario) Validate() error {
	if len(s.Flows) == 0 && len(s.Churn) == 0 {
		return fmt.Errorf("harness: scenario has no flows")
	}
	if s.Duration <= 0 {
		return fmt.Errorf("harness: scenario duration must be positive")
	}
	if s.MaxLiveFlows < 0 {
		return fmt.Errorf("harness: negative max live flows")
	}
	if len(s.Links) == 0 {
		return fmt.Errorf("harness: scenario has no links")
	}
	names := make(map[string]bool, len(s.Links))
	for i, l := range s.Links {
		if l.Name == "" {
			return fmt.Errorf("harness: link %d has no name", i)
		}
		if names[l.Name] {
			return fmt.Errorf("harness: duplicate link %q", l.Name)
		}
		names[l.Name] = true
		if len(l.Trace) == 0 && l.RateBps <= 0 {
			return fmt.Errorf("harness: link %q needs a rate or a trace", l.Name)
		}
		if l.DelayMs < 0 {
			return fmt.Errorf("harness: link %q has negative delay", l.Name)
		}
		if l.NewQueue == nil {
			return fmt.Errorf("harness: link %q has no queue factory", l.Name)
		}
		if err := l.Faults.Validate(); err != nil {
			return fmt.Errorf("harness: link %q: %w", l.Name, err)
		}
	}
	// checkRoute validates one flow's or churn class's routes against the links.
	checkRoute := func(kind string, i int, path, reverse []string) error {
		if len(path) == 0 {
			return fmt.Errorf("harness: %s %d has no path over the links", kind, i)
		}
		for _, name := range path {
			if !names[name] {
				return fmt.Errorf("harness: %s %d path references unknown link %q", kind, i, name)
			}
		}
		for _, name := range reverse {
			if !names[name] {
				return fmt.Errorf("harness: %s %d reverse path references unknown link %q", kind, i, name)
			}
		}
		return nil
	}
	for i, f := range s.Flows {
		if err := checkRoute("flow", i, f.Path, f.ReversePath); err != nil {
			return err
		}
		if f.RTTMs < 0 {
			return fmt.Errorf("harness: flow %d has negative RTT", i)
		}
		if f.NewAlgorithm == nil {
			return fmt.Errorf("harness: flow %d has no algorithm", i)
		}
		if err := f.Workload.Validate(); err != nil {
			return fmt.Errorf("harness: flow %d workload: %w", i, err)
		}
	}
	for ci, c := range s.Churn {
		if err := checkRoute("churn class", ci, c.Path, c.ReversePath); err != nil {
			return err
		}
		if c.RTTMs < 0 {
			return fmt.Errorf("harness: churn class %d has negative RTT", ci)
		}
		if c.NewAlgorithm == nil {
			return fmt.Errorf("harness: churn class %d has no algorithm", ci)
		}
		spec := workload.ArrivalSpec{Interarrival: c.Interarrival, Size: c.Size, MaxArrivals: c.MaxArrivals}
		if err := spec.Validate(); err != nil {
			return fmt.Errorf("harness: churn class %d: %w", ci, err)
		}
	}
	return nil
}

// FlowResult reports one flow's outcome from one run.
type FlowResult struct {
	// Metrics are the paper's evaluation metrics (§5.1).
	Metrics stats.FlowMetrics
	// Transport is the raw transport counter snapshot.
	Transport cc.Stats
	// Algorithm is the scheme name the flow ran.
	Algorithm string
	// OnPeriods is the number of completed or started on periods.
	OnPeriods int
}

// ChurnResult reports one churn class's outcome from one run.
type ChurnResult struct {
	// Class is the class index within Scenario.Churn.
	Class int
	// Algorithm is the scheme name the class's flows ran.
	Algorithm string
	// Spawned counts flows that arrived and attached; Completed those that
	// finished their transfer before the horizon; Rejected arrivals refused
	// because the live population was at MaxLiveFlows. Spawned - Completed
	// flows were still live when the run ended.
	Spawned, Completed, Rejected int64
	// FCT summarizes the completed flows' completion times in seconds
	// (streaming aggregation: exact count/mean/min/max, P² p50/p95/p99).
	FCT stats.FCTSummary
	// FCTSumUs, FCTMinUs and FCTMaxUs are the integer-exact microsecond
	// aggregates of the completion times (golden fixtures compare these).
	FCTSumUs, FCTMinUs, FCTMaxUs int64
	// Transport aggregates the transport counters over every spawned flow:
	// completed flows at retirement plus still-live flows at the horizon.
	Transport cc.Stats
}

// Result is the outcome of one Run.
type Result struct {
	Flows []FlowResult
	// Churn reports per-class churn outcomes, in class order (empty for
	// scenarios without churn classes).
	Churn []ChurnResult
	// Offered, Delivered and Dropped count data packets: offered at first-hop
	// queues, delivered by the primary link, dropped on arrival at any queue.
	Offered, Delivered, Dropped int64
	// AcksDropped counts acknowledgments dropped on reverse-path links, at
	// enqueue (tail drop) or dequeue (CoDel) time. Always zero when no flow
	// declares a ReversePath: the default ACK path is uncongested.
	AcksDropped int64
	// FaultDropped counts packets (data and acks) destroyed by fault-injected
	// burst loss across all links, separate from the queue-drop counters.
	FaultDropped int64
	// Links reports per-link counters in definition order.
	Links []LinkResult
}

// Run executes the scenario once with the given seed and returns per-flow
// results. Runs with equal scenarios and seeds produce identical results. It
// builds a throwaway Session and runs it once; callers that execute many
// repetitions of one scenario should hold a Session (or go through
// scenario.Runner, which pools engines and sessions) instead.
func Run(s Scenario, seed int64) (Result, error) {
	ss, err := NewSession(s)
	if err != nil {
		return Result{}, err
	}
	return ss.Run(seed)
}

// appendRoute appends the network's links of the given (validated) names to
// dst.
func appendRoute(dst []*netsim.Link, n *netsim.Network, names []string) []*netsim.Link {
	for _, name := range names {
		dst = append(dst, n.LinkByName(name))
	}
	return dst
}
