package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// metricDef declares one metric of BENCHMARK.json. This file is the single
// source of the manifest: `benchmark manifest` prints BENCHMARK.json from
// these tables and the tests hold the committed file to them.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// runSeconds is BENCHMARK.json's run_seconds: how long one run measures.
const runSeconds = 15

// endToEnd are the metrics a user of the system sees. Every workload reports
// every one of them, with the op being a repetition (steady_mix, remy_exec),
// a campaign cell (campaign_grid) or a simulated specimen (train_*). Bound is
// the share of the parent's median by which the metric may worsen. The
// bounds are wide because the driver judges each metric's spread over ten
// runs with ten different seeds on a shared 2-vCPU box: measured there, the
// rates spread by 3-14 % and allocs_per_op by 1-9 % (README, "Noise"), and a
// bound should be about three times the spread.
var endToEnd = []metricDef{
	{"pkts_per_s", "1/s", "higher", 0.25},
	{"sim_s_per_wall_s", "1", "higher", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"allocs_per_op", "count", "lower", 0.20},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is the layer ladder of the traced run. (P) is a micro-probe
// calling the public API in a loop, (T) a span or timestamp of the traced
// workload, (C) an exact count. A layer the workload does not enter reports
// 0, which is itself the prediction "a change there cannot move this
// workload".
var perLayer = []metricDef{
	// sim
	{Name: "sim.hold_ns_per_event", Unit: "ns", Better: "lower"},    // (P) 1k pending
	{Name: "sim.hold64k_ns_per_event", Unit: "ns", Better: "lower"}, // (P) 64k pending
	{Name: "sim.timer_rearm_ns", Unit: "ns", Better: "lower"},       // (P)
	{Name: "sim.events_per_pkt", Unit: "count", Better: "lower"},    // (C)
	{Name: "sim.events_per_s", Unit: "1/s", Better: "higher"},       // (T)
	// netsim
	{Name: "netsim.link_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "netsim.roundtrip_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "netsim.roundtrip_allocs_per_pkt", Unit: "count", Better: "lower"},
	{Name: "netsim.tracelink_ns_per_pkt", Unit: "ns", Better: "lower"},
	// aqm: Enqueue + Dequeue at depth 100
	{Name: "aqm.droptail_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "aqm.codel_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "aqm.sfqcodel_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "aqm.xcp_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "aqm.drop_share", Unit: "1", Better: "lower"}, // (C)
	// cc
	{Name: "cc.newreno_onack_ns", Unit: "ns", Better: "lower"},
	{Name: "cc.cubic_onack_ns", Unit: "ns", Better: "lower"},
	{Name: "cc.vegas_onack_ns", Unit: "ns", Better: "lower"},
	{Name: "cc.transport_ack_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "cc.onack_calls_per_pkt", Unit: "count", Better: "lower"},  // (C)
	{Name: "cc.loss_events_per_kpkt", Unit: "count", Better: "lower"}, // (C)
	// core, on a 150-rule tree
	{Name: "core.lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "core.lookup_hint_ns", Unit: "ns", Better: "lower"},
	{Name: "core.sender_onack_ns", Unit: "ns", Better: "lower"},
	{Name: "core.with_action_ns", Unit: "ns", Better: "lower"},
	{Name: "core.canonical_key_ns", Unit: "ns", Better: "lower"},
	{Name: "core.canonical_key_allocs", Unit: "count", Better: "lower"},
	{Name: "core.tree_json_ns", Unit: "ns", Better: "lower"},
	{Name: "core.deep_tree_slowdown", Unit: "1", Better: "lower"}, // (T) remy_exec (b) over (a)
	// traces
	{Name: "traces.generate_ms_per_sim_s", Unit: "ms", Better: "lower"},
	// scenario / harness, timed through Runner
	{Name: "scenario.rep_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "scenario.rep_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "scenario.runner_scaling_2w", Unit: "1", Better: "higher"},
	{Name: "scenario.unmarshal_us", Unit: "us", Better: "lower"},
	{Name: "harness.cold_rep_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "harness.build_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "harness.build_share", Unit: "1", Better: "lower"},
	{Name: "harness.cold_allocs_per_rep", Unit: "count", Better: "lower"},
	{Name: "harness.warm_allocs_per_rep", Unit: "count", Better: "lower"},
	// campaign
	{Name: "campaign.cells_per_s", Unit: "1/s", Better: "higher"},
	{Name: "campaign.overhead_share", Unit: "1", Better: "lower"},
	{Name: "campaign.report_ms", Unit: "ms", Better: "lower"},
	{Name: "campaign.expand_us_per_cell", Unit: "us", Better: "lower"},
	{Name: "campaign.manifest_us_per_cell", Unit: "us", Better: "lower"},
	{Name: "campaign.retries", Unit: "count", Better: "lower"},
	{Name: "campaign.failed_cells", Unit: "count", Better: "lower"},
	// stats
	{Name: "stats.p2_ns_per_obs", Unit: "ns", Better: "lower"},
	{Name: "stats.summarize_us", Unit: "us", Better: "lower"},
	// optimizer
	{Name: "optimizer.train_wall_s", Unit: "s", Better: "lower"},
	{Name: "optimizer.train_score", Unit: "1", Better: "higher"},
	{Name: "optimizer.sims", Unit: "count", Better: "lower"},
	{Name: "optimizer.cache_hit_share", Unit: "1", Better: "higher"},
	{Name: "optimizer.prune_share", Unit: "1", Better: "higher"},
	{Name: "optimizer.batches_per_round", Unit: "count", Better: "lower"},
	{Name: "optimizer.jobs_per_batch_p50", Unit: "count", Better: "higher"},
	{Name: "optimizer.batch_share", Unit: "1", Better: "higher"},
	{Name: "optimizer.self_ms_per_round", Unit: "ms", Better: "lower"},
	{Name: "optimizer.ms_per_sim", Unit: "ms", Better: "lower"},
	{Name: "optimizer.sims_per_s", Unit: "1/s", Better: "higher"},
	{Name: "optimizer.round_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "optimizer.round_ms_p90", Unit: "ms", Better: "lower"},
	// distrib
	{Name: "distrib.wire_bytes_per_sim", Unit: "B", Better: "lower"},
	{Name: "distrib.bytes_per_job_req", Unit: "B", Better: "lower"},
	{Name: "distrib.bytes_per_job_resp", Unit: "B", Better: "lower"},
	{Name: "distrib.frames_per_round", Unit: "count", Better: "lower"},
	{Name: "distrib.respawns", Unit: "count", Better: "lower"},
	{Name: "distrib.redispatches", Unit: "count", Better: "lower"},
	{Name: "distrib.encode_us_per_job", Unit: "us", Better: "lower"},
	{Name: "distrib.decode_us_per_job", Unit: "us", Better: "lower"},
	{Name: "distrib.overhead_vs_local", Unit: "1", Better: "lower"},
	{Name: "distrib.handshake_ms", Unit: "ms", Better: "lower"},
	// process and tracing itself
	{Name: "process.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "process.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "process.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "process.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "1", Better: "lower"},
	{Name: "failed_share", Unit: "1", Better: "lower"},
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string    `json:"command"`
	Paths      []string    `json:"paths"`
	RunSeconds int         `json:"run_seconds"`
	Workloads  []whyDef    `json:"workloads"`
	EndToEnd   []boundDef  `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

type whyDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// boundDef is metricDef with the bound always present.
type boundDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, whyDef{w.name, w.why})
	}
	for _, e := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, boundDef(e))
	}
	return m
}

func (m manifest) encode() ([]byte, error) {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// readManifest loads the committed BENCHMARK.json; compare takes its bounds
// from the file rather than from this binary's tables, so a baseline recorded
// by an older binary is still judged by the committed contract.
func readManifest() (manifest, error) {
	root, err := repoRoot()
	if err != nil {
		return manifest{}, err
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return manifest{}, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return manifest{}, fmt.Errorf("benchmark: BENCHMARK.json: %w", err)
	}
	return m, nil
}

// metricValue is one reported measurement.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fill returns every metric of defs as a named value, taking values from
// got and reporting 0 for what the run did not produce. A non-finite value
// is an error: it would not survive JSON.
func fill(defs []metricDef, got map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := got[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("benchmark: metric %s is not finite", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}
