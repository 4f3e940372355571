package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/stats"
)

// runRecord is everything one run produced. It is what --out stores and what
// compare reads; the driver's JSON line is a projection of it.
type runRecord struct {
	Workload  string                 `json:"workload"`
	Label     string                 `json:"label,omitempty"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     bool                   `json:"trace"`
	Smoke     bool                   `json:"smoke,omitempty"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Passes    int                    `json:"passes"`
	Digest    string                 `json:"digest"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Samples holds the sample behind each median: n and quartiles.
	Samples map[string]spread `json:"samples,omitempty"`
	// Exact holds the values that must repeat exactly for one seed: counts,
	// train_score, wire bytes.
	Exact    map[string]float64 `json:"exact,omitempty"`
	Variants []variantRow       `json:"variants,omitempty"`
	Layers   []layerTime        `json:"layers,omitempty"`
	Notes    []string           `json:"notes,omitempty"`
	Env      environment        `json:"env"`
	WallS    float64            `json:"wall_s"`
}

// measured is a workload set up (setupReps times or more) and the passes
// run on it so far.
type measured struct {
	def       workloadDef
	taps      *taps // nil when untraced
	inst      instance
	setupS    []float64
	passes    []passResult
	regions   []region
	attempted int64
	failed    int64
	notes     []string
	digest    string
	counts    layerCounts // summed over the passes (traced run only)
	pkts      int64       // packets acknowledged over the passes
}

// Set-up is repeated until it has been timed setupReps times and — so that a
// set-up of a few milliseconds is not reported from three samples — for at
// least minSetupSeconds or maxSetupReps times.
const (
	minSetupSeconds = 1.0
	maxSetupReps    = 9
)

// setUp builds the workload's instance, several times for a steady setup_s.
// The returned instance is open; the caller closes it.
func setUp(def workloadDef, cfg runConfig, t *taps) (*measured, error) {
	m := &measured{def: def, taps: t}
	// One set-up is what the traced run asks for; otherwise cheap set-ups
	// are repeated beyond setupReps until they add up to a sample worth a
	// median.
	var total float64
	enough := func(i int) bool {
		if i < cfg.size.setupReps {
			return false
		}
		return cfg.size.setupReps == 1 || total >= minSetupSeconds || i >= maxSetupReps
	}
	for i := 0; !enough(i); i++ {
		if m.inst != nil {
			m.inst.close()
		}
		var inst instance
		r, err := timed(func() error {
			var err error
			inst, err = def.setup(cfg, t)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", def.name, err)
		}
		m.inst = inst
		m.setupS = append(m.setupS, r.wall.Seconds())
		total += r.wall.Seconds()
	}
	if t != nil {
		t.collect() // set-up's counts are not the passes'
	}
	return m, nil
}

// runPass runs and records one timed pass.
func (m *measured) runPass(env passEnv) error {
	var p passResult
	id := env.tr.begin("pass", env.parent)
	r, err := timed(func() error {
		var err error
		p, err = m.inst.pass(passEnv{tr: env.tr, parent: id})
		return err
	})
	env.tr.end(id)
	if err != nil {
		return fmt.Errorf("%s: pass %d: %w", m.def.name, len(m.passes), err)
	}
	m.passes = append(m.passes, p)
	m.regions = append(m.regions, r)
	if m.taps != nil {
		m.counts.add(m.taps.collect())
	}
	m.attempted += p.ops
	m.pkts += p.pkts
	m.failed += p.failed
	m.notes = append(m.notes, p.notes...)
	if m.digest == "" {
		m.digest = p.digest
	} else if p.digest != m.digest {
		// Identical (spec, seed) work must give identical results.
		m.failed++
		m.notes = append(m.notes, fmt.Sprintf("pass %d digest %s differs from pass 0 digest %s", len(m.passes)-1, p.digest, m.digest))
	}
	return nil
}

// side is one participant of runPasses: a set-up workload and the trace
// context its passes run in.
type side struct {
	m   *measured
	env passEnv
}

// runPasses runs whole passes, one of each side in turn, for at least budget
// seconds and minPasses rounds. Sides that are compared with each other (the
// traced run against its untraced reference, train_distrib against its
// in-process control) alternate so that the machine's drift falls on both.
func runPasses(budget float64, minPasses int, sides ...side) error {
	start := time.Now()
	for n := 0; n < minPasses || time.Since(start).Seconds() < budget; n++ {
		for _, s := range sides {
			if err := s.m.runPass(s.env); err != nil {
				return err
			}
		}
	}
	return nil
}

// unitTotals folds the passes' units: per unit the fastest wall over every
// sample of every pass, then the sums a rate divides.
//
// The fastest, not the median: every sample of a unit is the same work, and
// on a shared box the noise is one-sided — a neighbour only ever makes a pass
// slower — and drifts over tens of seconds, so a run's median follows the
// drift while its fastest pass sits near the undisturbed cost. Measured over
// ten runs of one commit on one core (IQR / median of pkts_per_s): steady_mix
// 35 % by median, 19 % by lower quartile, 7 % by fastest pass; remy_exec
// 24 / 13 / 7 %; campaign_grid 32 / 32 / 14 %. The median and quartiles of
// every unit are still recorded and printed (wall_ms.<unit>).
type unitTotals struct {
	wallS, ops, pkts, simS float64
	samples                map[string]spread // per-unit wall samples, ms
}

func (m *measured) totals() unitTotals {
	out := unitTotals{samples: make(map[string]spread)}
	if len(m.passes) == 0 {
		return out
	}
	for ui, u := range m.passes[0].units {
		var walls []float64
		for _, p := range m.passes {
			walls = append(walls, p.units[ui].walls...)
		}
		ms := make([]float64, len(walls))
		for i, w := range walls {
			ms[i] = w * 1e3
		}
		out.samples["wall_ms."+u.name] = spreadOf(ms)
		out.wallS += stats.Quantile(walls, 0)
		out.ops += u.ops
		out.pkts += u.pkts
		out.simS += u.simS
	}
	return out
}

// bytesPerOp is the median over the passes of TotalAlloc per op. It is a
// per-layer metric, not an end-to-end one: it is dominated by the sessions a
// pass builds, whose slabs size themselves to the seed's peak queue, and on
// steady_mix it spreads by 24 % across seeds — too close to the widest bound
// the contract allows.
func (m *measured) bytesPerOp() float64 {
	var bytes []float64
	for i, p := range m.passes {
		if p.ops > 0 {
			bytes = append(bytes, float64(m.regions[i].bytes)/float64(p.ops))
		}
	}
	return stats.Median(bytes)
}

// endToEndMetrics computes the end-to-end metrics of an untraced run.
func (m *measured) endToEndMetrics() (map[string]float64, map[string]spread) {
	tot := m.totals()
	samples := tot.samples
	var allocs []float64
	for i, p := range m.passes {
		if p.ops > 0 {
			allocs = append(allocs, float64(m.regions[i].mallocs)/float64(p.ops))
		}
	}
	samples["allocs_per_op"] = spreadOf(allocs)
	samples["setup_s"] = spreadOf(m.setupS)
	got := map[string]float64{
		"allocs_per_op": stats.Median(allocs),
		"setup_s":       stats.Median(m.setupS),
	}
	if tot.wallS > 0 {
		got["pkts_per_s"] = tot.pkts / tot.wallS
		got["sim_s_per_wall_s"] = tot.simS / tot.wallS
		got["ops_per_s"] = tot.ops / tot.wallS
	}
	return got, samples
}

// exact returns the values that repeat exactly for one seed.
func (m *measured) exact() map[string]float64 {
	out := make(map[string]float64)
	if len(m.passes) == 0 {
		return out
	}
	p := m.passes[0]
	for ui, u := range p.units {
		out[fmt.Sprintf("unit%d.pkts", ui)] = u.pkts
		out[fmt.Sprintf("unit%d.ops", ui)] = u.ops
	}
	for k, v := range p.extra {
		if exactExtras[k] {
			out[k] = v
		}
	}
	return out
}

// exactExtras are the passResult.extra keys that are counts or scores rather
// than timings.
var exactExtras = map[string]bool{
	"cells": true, "retries": true, "failed_cells": true,
	"sims": true, "cache_hits": true, "pruned": true, "rounds": true, "batches": true,
	"jobs_per_batch": true, "train_score": true, "rules": true,
	"wire_req_bytes": true, "wire_resp_bytes": true, "distrib_batches": true,
	"respawns": true, "redispatches": true,
}

// runWorkload executes one run of one workload and returns its record.
func runWorkload(cfg runConfig, procs int, log io.Writer) (runRecord, error) {
	def, ok := findWorkload(cfg.workload)
	if !ok {
		return runRecord{}, fmt.Errorf("benchmark: unknown workload %q", cfg.workload)
	}
	begin := time.Now()
	rec := runRecord{
		Workload: def.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Env: readEnvironment(procs),
	}
	var got map[string]float64
	var defs []metricDef
	if cfg.trace {
		var err error
		if got, err = runTraced(def, cfg, &rec, log); err != nil {
			return runRecord{}, err
		}
		defs = perLayer
	} else {
		m, err := setUp(def, cfg, nil)
		if err != nil {
			return runRecord{}, err
		}
		err = runPasses(cfg.seconds, cfg.size.minPasses, side{m, passEnv{parent: -1}})
		m.inst.close()
		if err != nil {
			return runRecord{}, err
		}
		got, rec.Samples = m.endToEndMetrics()
		rec.Exact = m.exact()
		rec.Attempted, rec.Failed, rec.Notes = m.attempted, m.failed, m.notes
		rec.Passes, rec.Digest = len(m.passes), m.digest
		defs = endToEnd
	}
	var err error
	if rec.Metrics, err = fill(defs, got); err != nil {
		return runRecord{}, err
	}
	rec.Correct = rec.Failed == 0
	rec.WallS = time.Since(begin).Seconds()
	return rec, nil
}

// printRecord writes the human-readable block of one run: every metric by
// name with its unit, then what backs it.
func printRecord(w io.Writer, rec runRecord) {
	defs := endToEnd
	if rec.Trace {
		defs = perLayer
	}
	fmt.Fprintf(w, "== %s  seed=%d  trace=%v  passes=%d  wall=%.1fs\n", rec.Workload, rec.Seed, rec.Trace, rec.Passes, rec.WallS)
	fmt.Fprintf(w, "   commit=%s  go=%s  cpu=%q  gomaxprocs=%d\n", rec.Env.Commit, rec.Env.GoVersion, rec.Env.CPU, rec.Env.GOMAXPROCS)
	for _, d := range defs {
		v := rec.Metrics[d.Name]
		line := fmt.Sprintf("   %-34s %16.6g %-6s", d.Name, v.Value, v.Unit)
		if s, ok := rec.Samples[d.Name]; ok {
			line += fmt.Sprintf("  n=%d min=%.6g quartiles=[%.6g %.6g %.6g]", s.N, s.Min, s.P25, s.P50, s.P75)
		}
		fmt.Fprintln(w, line)
	}
	var keys []string
	for k := range rec.Samples {
		if _, isMetric := rec.Metrics[k]; !isMetric {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		s := rec.Samples[k]
		fmt.Fprintf(w, "   %-34s n=%d min=%.6g quartiles=[%.6g %.6g %.6g] iqr/median=%.3f\n", k, s.N, s.Min, s.P25, s.P50, s.P75, s.rel())
	}
	for _, v := range rec.Variants {
		fmt.Fprintf(w, "   variant %-18s ns/pkt=%.1f events/pkt=%.3f onack/pkt=%.3f enq/pkt=%.3f attributed_ns=%.1f unattributed_share=%.3f\n",
			v.Name, v.NsPerPkt, v.EventsPerPkt, v.OnAckPerPkt, v.EnqueuesPerPkt, v.AttributedNs, v.UnattributedShare)
	}
	for _, l := range rec.Layers {
		fmt.Fprintf(w, "   span %-22s count=%-6d total=%.1fms self=%.1fms\n", l.Name, l.Count, l.TotalMs, l.SelfMs)
	}
	share := 0.0
	if rec.Attempted > 0 {
		share = float64(rec.Failed) / float64(rec.Attempted)
	}
	fmt.Fprintf(w, "   digest=%s  attempted=%d  failed=%d  failed_share=%g  correct=%v\n", rec.Digest, rec.Attempted, rec.Failed, share, rec.Correct)
	for _, n := range rec.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
}
