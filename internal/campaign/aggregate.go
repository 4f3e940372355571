package campaign

import (
	"math"

	"repro/internal/scenario"
	"repro/internal/stats"
)

// Metric is the JSON view of one streamed metric: exact count/mean/min/max,
// P² p50/p95/p99. It mirrors stats.FCTSummary with report-stable JSON keys.
type Metric struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

func metricFrom(s stats.FCTSummary) Metric {
	return Metric{Count: s.Count, Mean: s.Mean, Min: s.Min, Max: s.Max, P50: s.P50, P95: s.P95, P99: s.P99}
}

// FCTMetric is the campaign-level flow-completion-time aggregate for one
// cell, in milliseconds. Count/mean/min/max are integer-exact across
// repetitions (folded from the harness's microsecond counters); the
// percentiles are count-weighted means of each repetition's streaming P²
// estimates — every repetition aggregates its own completions exactly once,
// so no sample is retained or double counted anywhere in the pipeline.
type FCTMetric struct {
	Count  int64   `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	MinMs  float64 `json:"min_ms"`
	MaxMs  float64 `json:"max_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
}

// CellAggregate is everything the campaign keeps from one cell: O(1)-state
// summaries of the paper's metrics plus the churn population counters. No
// per-flow or per-packet sample survives the fold.
type CellAggregate struct {
	// Reps is the number of repetitions folded in.
	Reps int `json:"reps"`
	// FlowSamples counts the (flow, repetition) observations behind the
	// throughput/delay/utility aggregates (static flows that were on at
	// least once).
	FlowSamples int64 `json:"flow_samples"`
	// ThroughputMbps and QueueDelayMs summarize per-flow-per-rep throughput
	// and queueing delay.
	ThroughputMbps Metric `json:"throughput_mbps"`
	QueueDelayMs   Metric `json:"queue_delay_ms"`
	// UtilityMean is the mean per-flow Eq. 1 objective,
	// ln(throughput Mbps) − δ·ln(AvgRTT/MinRTT) with δ=1 (the paper's
	// α=β=1 configuration; delay as a ratio to the minimum RTT, the
	// optimizer's convention). Flows with zero throughput are excluded and
	// counted in StarvedFlows instead, so the mean stays finite.
	UtilityMean float64 `json:"utility_mean"`
	// StarvedFlows counts flow observations excluded from UtilityMean for
	// zero throughput.
	StarvedFlows int64 `json:"starved_flows"`
	// FlowsSpawned/Completed/Rejected total the churn population across all
	// classes and repetitions (zero for churn-less cells).
	FlowsSpawned   int64 `json:"flows_spawned"`
	FlowsCompleted int64 `json:"flows_completed"`
	FlowsRejected  int64 `json:"flows_rejected"`
	// FCT aggregates completed flows' completion times.
	FCT FCTMetric `json:"fct"`
}

// cellAggregator folds scenario.Results into a CellAggregate with O(1)
// state. Folding MUST happen in repetition order: float accumulation is not
// associative, and the determinism guarantee (shard union ≡ single process,
// any worker count) holds because every execution folds the same results in
// the same order. A run keeps one and resets it for each cell.
type cellAggregator struct {
	reps        int
	tput, delay stats.FCTAggregator // generic P² stream summaries, not FCTs
	utilSum     float64
	utilN       int64
	starved     int64

	spawned, completed, rejected int64
	fctSumUs                     int64
	fctMinUs, fctMaxUs           int64
	fctHasMin                    bool
	p50W, p95W, p99W             float64 // count-weighted P² estimate sums (seconds)
}

func newCellAggregator() *cellAggregator {
	a := new(cellAggregator)
	a.reset()
	return a
}

// reset empties the aggregator for the next cell: it is then what
// newCellAggregator returns.
func (a *cellAggregator) reset() {
	*a = cellAggregator{}
	a.tput.Reset()
	a.delay.Reset()
}

// utilityObjective is the Eq. 1 configuration campaign reports use.
var utilityObjective = stats.DefaultObjective(1)

// fold absorbs one repetition's results.
func (a *cellAggregator) fold(res scenario.Result) {
	a.reps++
	for _, f := range res.Res.Flows {
		m := f.Metrics
		if m.OnDuration <= 0 {
			continue
		}
		a.tput.Observe(m.Mbps())
		a.delay.Observe(m.QueueingDelayMs())
		if m.ThroughputBps > 0 && m.MinRTT > 0 {
			u := utilityObjective.Score(m.Mbps(), m.AvgRTT/m.MinRTT)
			if !math.IsInf(u, 0) && !math.IsNaN(u) {
				a.utilSum += u
				a.utilN++
			} else {
				a.starved++
			}
		} else {
			a.starved++
		}
	}
	for _, c := range res.Res.Churn {
		a.spawned += c.Spawned
		a.completed += c.Completed
		a.rejected += c.Rejected
		a.fctSumUs += c.FCTSumUs
		if c.Completed > 0 {
			if !a.fctHasMin || c.FCTMinUs < a.fctMinUs {
				a.fctMinUs = c.FCTMinUs
				a.fctHasMin = true
			}
			if c.FCTMaxUs > a.fctMaxUs {
				a.fctMaxUs = c.FCTMaxUs
			}
		}
		n := float64(c.FCT.Count)
		a.p50W += n * c.FCT.P50
		a.p95W += n * c.FCT.P95
		a.p99W += n * c.FCT.P99
	}
}

// finalize renders the aggregate.
func (a *cellAggregator) finalize() CellAggregate {
	out := CellAggregate{
		Reps:           a.reps,
		FlowSamples:    a.tput.Count(),
		ThroughputMbps: metricFrom(a.tput.Summary()),
		QueueDelayMs:   metricFrom(a.delay.Summary()),
		StarvedFlows:   a.starved,
		FlowsSpawned:   a.spawned,
		FlowsCompleted: a.completed,
		FlowsRejected:  a.rejected,
	}
	if a.utilN > 0 {
		out.UtilityMean = a.utilSum / float64(a.utilN)
	}
	out.FCT.Count = a.completed
	if a.completed > 0 {
		n := float64(a.completed)
		out.FCT.MeanMs = float64(a.fctSumUs) / n / 1e3
		out.FCT.MinMs = float64(a.fctMinUs) / 1e3
		out.FCT.MaxMs = float64(a.fctMaxUs) / 1e3
		out.FCT.P50Ms = a.p50W / n * 1e3
		out.FCT.P95Ms = a.p95W / n * 1e3
		out.FCT.P99Ms = a.p99W / n * 1e3
	}
	return out
}
