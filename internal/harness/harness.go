// Package harness holds what one simulation run reports: per-flow metrics,
// per-churn-class completion statistics and per-link counters, gathered in a
// Result. The runs themselves are built and executed by package scenario
// (scenario.Session, scenario.Runner); the Remy optimizer scores candidate
// rule tables from these results, and the experiment, campaign and benchmark
// layers report them.
package harness

import (
	"repro/internal/cc"
	"repro/internal/stats"
)

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
	// Class is the class index within the spec's churn section.
	Class int
	// Algorithm is the scheme name the class's flows ran.
	Algorithm string
	// Spawned counts flows that arrived and attached; Completed those that
	// finished their transfer before the horizon; Rejected arrivals refused
	// because the live population was at its cap. Spawned - Completed flows
	// were still live when the run ended.
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

// Result is the outcome of one run.
type Result struct {
	// Flows reports the static flows, in spec order with counts expanded.
	Flows []FlowResult
	// Churn reports per-class churn outcomes, in class order (empty for
	// worlds without churn classes).
	Churn []ChurnResult
	// Offered, Delivered and Dropped count data packets: offered at first-hop
	// queues, delivered by the primary (first) link, dropped on arrival at
	// any queue.
	Offered, Delivered, Dropped int64
	// AcksDropped counts acknowledgments dropped on reverse-path links, at
	// enqueue (tail drop) or dequeue (CoDel) time. Always zero when no flow
	// declares a reverse path: the default ACK path is uncongested.
	AcksDropped int64
	// FaultDropped counts packets (data and acks) destroyed by fault-injected
	// burst loss across all links, separate from the queue-drop counters.
	FaultDropped int64
	// Links reports per-link counters in definition order.
	Links []LinkResult
}
