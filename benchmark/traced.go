package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/scenario"
	"repro/internal/stats"
)

// variantRow is the per-variant attribution of the traced steady_mix and
// remy_exec runs: what one acknowledged packet costs, which layer calls it
// makes, and how much of its cost the probe ladder accounts for.
//
// Recipe: attributed_ns = events/pkt × sim.hold_ns_per_event
// + enqueues/pkt × aqm.<kind>_ns_per_pkt + OnAck calls/pkt × the scheme's
// OnAck probe; unattributed_share = 1 − attributed_ns / ns_per_pkt. What is
// left is the code no probe isolates: link, port and receiver bookkeeping,
// cc.Transport, the workload switcher and the harness.
type variantRow struct {
	Name              string  `json:"name"`
	NsPerPkt          float64 `json:"ns_per_pkt"`
	EventsPerPkt      float64 `json:"events_per_pkt"`
	OnAckPerPkt       float64 `json:"onack_per_pkt"`
	EnqueuesPerPkt    float64 `json:"enqueues_per_pkt"`
	AttributedNs      float64 `json:"attributed_ns"`
	UnattributedShare float64 `json:"unattributed_share"`
}

// variantProbes maps a variant's scheme to the probes that price its queue
// and its algorithm.
var variantProbes = map[string][2]string{
	"newreno":        {"aqm.droptail_ns_per_pkt", "cc.newreno_onack_ns"},
	"cubic":          {"aqm.droptail_ns_per_pkt", "cc.cubic_onack_ns"},
	"cubic/sfqcodel": {"aqm.sfqcodel_ns_per_pkt", "cc.cubic_onack_ns"},
	"xcp":            {"aqm.xcp_ns_per_pkt", ""}, // no XCP sender probe: its OnAck stays unattributed
	"vegas":          {"aqm.droptail_ns_per_pkt", "cc.vegas_onack_ns"},
	schemeRemy:       {"aqm.droptail_ns_per_pkt", "core.sender_onack_ns"},
	schemeRemyDeep:   {"aqm.droptail_ns_per_pkt", "core.sender_onack_ns"},
	schemeRemyDC:     {"aqm.droptail_ns_per_pkt", "core.sender_onack_ns"},
}

// runTraced is the traced run: the probe ladder, an untraced reference of the
// workload, the workload again behind the counting registry with spans on,
// and the measurements only this run takes. It fills rec and returns the
// per-layer metrics by name.
func runTraced(def workloadDef, cfg runConfig, rec *runRecord, log io.Writer) (map[string]float64, error) {
	stageStart := time.Now()
	stage := func(name string) {
		fmt.Fprintf(log, "   stage %-10s %.1fs\n", name, time.Since(stageStart).Seconds())
		stageStart = time.Now()
	}
	got, err := runProbes(cfg)
	if err != nil {
		return nil, err
	}
	stage("probes")
	var gcBefore runtime.MemStats
	runtime.ReadMemStats(&gcBefore)

	// Set-up and steadiness are the untraced run's business; here one
	// set-up and two passes a side are enough.
	cfg.size.setupReps = 1
	cfg.size.minPasses = 2
	ref, err := setUp(def, cfg, nil)
	if err != nil {
		return nil, err
	}
	defer ref.inst.close()
	tr := newTracer()
	t := newTaps(tr)
	root := tr.begin(def.name, -1)
	traced, err := setUp(def, cfg, t)
	if err != nil {
		return nil, err
	}
	defer traced.inst.close()
	stage("set-up")

	// The untraced reference and the traced workload alternate pass by
	// pass, so the machine's drift falls on both sides of the overhead.
	sides := []side{{ref, passEnv{parent: -1}}, {traced, passEnv{tr: tr, parent: root}}}
	var control *measured
	if inst, ok := ref.inst.(*trainInstance); ok && inst.coord != nil {
		// train_distrib brings its in-process control: the same training
		// behind the same seam without the wire, in the same alternation.
		local, _ := findWorkload("train_rounds")
		if control, err = setUp(local, cfg, nil); err != nil {
			return nil, err
		}
		defer control.inst.close()
		sides = append(sides, side{control, passEnv{parent: -1}})
	}
	if err := runPasses(cfg.seconds*0.6, cfg.size.minPasses, sides...); err != nil {
		return nil, err
	}
	tr.end(root)
	stage("passes")

	rec.Attempted = ref.attempted + traced.attempted
	rec.Failed = ref.failed + traced.failed
	rec.Notes = append(ref.notes, traced.notes...)
	rec.Passes, rec.Digest = len(traced.passes), traced.digest
	if traced.digest != ref.digest {
		// The decorators must be transparent.
		rec.Failed++
		rec.Notes = append(rec.Notes, fmt.Sprintf("traced digest %s differs from untraced digest %s", traced.digest, ref.digest))
	}

	refTot, tracedTot := ref.totals(), traced.totals()
	rec.Samples = refTot.samples
	if refTot.wallS > 0 {
		got["trace.overhead_share"] = tracedTot.wallS/refTot.wallS - 1
	}
	var tracedWall float64
	for _, r := range traced.regions {
		tracedWall += r.wall.Seconds()
	}
	c := traced.counts
	if traced.pkts > 0 && c.Events > 0 {
		pkts := float64(traced.pkts)
		got["sim.events_per_pkt"] = float64(c.Events) / pkts
		got["sim.events_per_s"] = float64(c.Events) / tracedWall
		got["cc.onack_calls_per_pkt"] = float64(c.OnAck) / pkts
		got["cc.loss_events_per_kpkt"] = 1e3 * float64(c.OnLoss+c.OnTimeout) / pkts
		if c.Enqueued > 0 {
			got["aqm.drop_share"] = float64(c.Dropped) / float64(c.Enqueued)
		}
	}

	switch inst := ref.inst.(type) {
	case *variantsInstance:
		err = tracedVariants(inst, traced.inst.(*variantsInstance), ref, t, cfg, got, rec)
	case *campaignInstance:
		err = tracedCampaign(inst, ref, tr, cfg, got, rec)
	case *trainInstance:
		err = tracedTrain(inst, ref, control, got, rec)
	}
	if err != nil {
		return nil, err
	}
	stage("layers")

	var gcAfter runtime.MemStats
	runtime.ReadMemStats(&gcAfter)
	got["process.bytes_per_op"] = ref.bytesPerOp()
	got["process.peak_rss_mb"] = peakRSSMB()
	got["process.gc_cycles"] = float64(gcAfter.NumGC - gcBefore.NumGC)
	got["process.gc_pause_ms"] = float64(gcAfter.PauseTotalNs-gcBefore.PauseTotalNs) / 1e6
	if rec.Attempted > 0 {
		got["failed_share"] = float64(rec.Failed) / float64(rec.Attempted)
	}

	spans := tr.snapshot()
	rec.Layers = rollUp(spans)
	path, err := writeTrace(def.name, spans)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "   trace: %d spans written to %s\n", len(spans), path)
	return got, nil
}

// sessionCosts is what running specs cold and warm at the same seed shows
// about the harness: the cold and warm repetition, and their difference — the
// session build.
type sessionCosts struct {
	coldMs, warmMs, buildMs []float64
	coldAllocs, warmAllocs  []float64
	mismatches              []string
}

// sampleSessions runs each rep-invariant spec as a two-repetition stream
// (cold at the base seed, then warm at the seed of repetition 1) and as a
// one-repetition stream at exactly that second seed (cold). The warm and the
// cold run at the same seed do identical simulation work, so their wall
// difference is the session build, and their results must digest alike.
func sampleSessions(reg *scenario.Registry, specs []scenario.Spec, pairs int) sessionCosts {
	var out sessionCosts
	runner := scenario.Runner{Registry: reg, Workers: 1}
	const warmReps = 4
	for _, spec := range specs {
		if !spec.RepInvariant() {
			continue
		}
		two, one, many := spec, spec, spec
		two.Repetitions = 2
		one.Repetitions = 1
		one.Seed = scenario.DeriveSeed(spec.Seed, 1)
		many.Repetitions = 1 + warmReps
		for k := 0; k < pairs; k++ {
			a := streamTimed(reg, []scenario.Spec{two})
			b := streamTimed(reg, []scenario.Spec{one})
			if len(a) != 2 || len(b) != 1 || a[1].res.Err != nil || b[0].res.Err != nil {
				out.mismatches = append(out.mismatches, fmt.Sprintf("%s: cold/warm sample did not run", spec.Name))
				continue
			}
			da, db := newDigest(), newDigest()
			digestResult(da, a[1].res)
			digestResult(db, b[0].res)
			if da.String() != db.String() {
				out.mismatches = append(out.mismatches, fmt.Sprintf("%s: warm session and cold session differ at seed %d", spec.Name, one.Seed))
			}
			out.coldMs = append(out.coldMs, b[0].wall*1e3)
			out.warmMs = append(out.warmMs, a[1].wall*1e3)
			out.buildMs = append(out.buildMs, (b[0].wall-a[1].wall)*1e3)
		}
		cold, _ := timed(func() error { _, err := runner.RunOne(one); return err })
		warm, _ := timed(func() error { _, err := runner.RunOne(many); return err })
		out.coldAllocs = append(out.coldAllocs, float64(cold.mallocs))
		out.warmAllocs = append(out.warmAllocs, (float64(warm.mallocs)-float64(cold.mallocs))/warmReps)
	}
	return out
}

// runnerScaling is the speed-up of two workers on two cores over one worker
// on one, on the same specs cut to sixteen repetitions each (shorter windows
// measure the guest scheduler, which can leave two fresh threads on one vCPU
// for half a second). It is the one place the benchmark lets the process use
// a second core, and only briefly.
func runnerScaling(reg *scenario.Registry, specs []scenario.Spec) (float64, error) {
	if runtime.NumCPU() < 2 {
		return 1, nil
	}
	short := make([]scenario.Spec, len(specs))
	for i, s := range specs {
		if s.Reps() > 16 {
			s.Repetitions = 16
		}
		short[i] = s
	}
	specs = short
	var ratios []float64
	for k := 0; k < 2; k++ {
		var walls [2]float64
		for w := 1; w <= 2; w++ {
			runtime.GOMAXPROCS(w)
			start := time.Now()
			if _, err := (scenario.Runner{Registry: reg, Workers: w}).RunAll(specs); err != nil {
				return 0, err
			}
			walls[w-1] = time.Since(start).Seconds()
			runtime.GOMAXPROCS(1)
		}
		ratios = append(ratios, walls[0]/walls[1])
	}
	return stats.Median(ratios), nil
}

// harnessMetrics fills the scenario/harness rungs from sampled sessions.
// coldPerPass and workers say how many sessions one pass builds and over how
// many workers, for the share of worker time a pass spends building.
func harnessMetrics(s sessionCosts, passWallS float64, coldPerPass, workers int, got map[string]float64, rec *runRecord) {
	got["harness.cold_rep_ms_p50"] = stats.Median(s.coldMs)
	got["harness.build_ms_p50"] = stats.Median(s.buildMs)
	got["harness.cold_allocs_per_rep"] = stats.Median(s.coldAllocs)
	got["harness.warm_allocs_per_rep"] = stats.Median(s.warmAllocs)
	if passWallS > 0 {
		got["harness.build_share"] = stats.Median(s.buildMs) / 1e3 * float64(coldPerPass) / (passWallS * float64(workers))
	}
	rec.Samples["harness.build_ms"] = spreadOf(s.buildMs)
	if len(s.mismatches) > 0 {
		rec.Failed += int64(len(s.mismatches))
		rec.Notes = append(rec.Notes, s.mismatches...)
	}
}

func tracedVariants(ref, traced *variantsInstance, m *measured, t *taps, cfg runConfig, got map[string]float64, rec *runRecord) error {
	var warm []float64
	var passWall float64
	for i, p := range m.passes {
		for _, w := range p.warm {
			warm = append(warm, w*1e3)
		}
		passWall += m.regions[i].wall.Seconds()
	}
	passWall /= float64(len(m.passes))
	got["scenario.rep_ms_p50"] = stats.Median(warm)
	got["scenario.rep_ms_p90"] = stats.Quantile(warm, 0.9)
	rec.Samples["scenario.rep_ms"] = spreadOf(warm)

	harnessMetrics(sampleSessions(ref.reg, ref.specs, cfg.size.coldPairs), passWall, len(ref.specs), 1, got, rec)
	scaling, err := runnerScaling(ref.reg, ref.specs)
	if err != nil {
		return err
	}
	got["scenario.runner_scaling_2w"] = scaling

	// Per-variant counts: each variant alone behind the counting registry.
	tot := m.totals()
	wallOf := func(name string) float64 { return tot.samples["wall_ms."+name].P50 * 1e6 } // ns
	byName := make(map[string]float64)
	for i, spec := range traced.specs {
		one := spec
		one.Repetitions = 5
		t.collect()
		results, err := (scenario.Runner{Registry: traced.reg, Workers: 1}).RunOne(one)
		if err != nil {
			return err
		}
		c := t.collect()
		var pkts int64
		for _, r := range results {
			pkts += ackedPackets(r.Res)
		}
		u := m.passes[0].units[i]
		if pkts == 0 || u.pkts == 0 {
			continue
		}
		row := variantRow{
			Name:           spec.Name,
			NsPerPkt:       wallOf(spec.Name) / u.pkts,
			EventsPerPkt:   float64(c.Events) / float64(pkts),
			OnAckPerPkt:    float64(c.OnAck) / float64(pkts),
			EnqueuesPerPkt: float64(c.Enqueued) / float64(pkts),
		}
		probes := variantProbes[spec.Flows[0].Scheme]
		row.AttributedNs = row.EventsPerPkt*got["sim.hold_ns_per_event"] +
			row.EnqueuesPerPkt*got[probes[0]] + row.OnAckPerPkt*got[probes[1]]
		row.UnattributedShare = 1 - row.AttributedNs/row.NsPerPkt
		rec.Variants = append(rec.Variants, row)
		byName[spec.Name] = row.NsPerPkt
	}
	if a, b := byName["a-delta1"], byName["b-delta1-deep"]; a > 0 && b > 0 {
		// Equal packet counts in (a) and (b) are checked by every pass, so
		// the ratio of their per-packet costs is the ratio of their walls.
		got["core.deep_tree_slowdown"] = b / a
	}
	return nil
}

func tracedCampaign(ref *campaignInstance, m *measured, tr *tracer, cfg runConfig, got map[string]float64, rec *runRecord) error {
	tot := m.totals()
	passWall := tot.wallS
	got["campaign.cells_per_s"] = tot.ops / passWall
	extra := m.passes[0].extra
	got["campaign.retries"] = extra["retries"]
	got["campaign.failed_cells"] = extra["failed_cells"]

	var reportMs []float64
	for _, s := range tr.snapshot() {
		if s.Name == "report" {
			reportMs = append(reportMs, float64(s.EndNs-s.StartNs)/1e6)
		}
	}
	got["campaign.report_ms"] = stats.Median(reportMs)

	// The same cells' specs straight through the runner: what the campaign
	// layer adds on top is its overhead.
	cells := ref.sweep.NumCells()
	specs := make([]scenario.Spec, cells)
	for i := range specs {
		cell, err := ref.sweep.Cell(i)
		if err != nil {
			return err
		}
		if specs[i], err = cell.Spec(); err != nil {
			return err
		}
	}
	var bare []float64
	for k := 0; k < 3; k++ {
		start := time.Now()
		if _, err := (scenario.Runner{Registry: ref.reg, Workers: 2}).RunAll(specs); err != nil {
			return err
		}
		bare = append(bare, time.Since(start).Seconds())
	}
	got["campaign.overhead_share"] = 1 - stats.Median(bare)/passWall

	// Harness rungs from an even sample of the grid's cells.
	stride := cells / 24
	if stride < 1 {
		stride = 1
	}
	var sample []scenario.Spec
	for i := 0; i < cells; i += stride {
		sample = append(sample, specs[i])
	}
	costs := sampleSessions(ref.reg, sample, cfg.size.coldPairs)
	harnessMetrics(costs, passWall, cells, 2, got, rec)
	got["scenario.rep_ms_p50"] = stats.Median(costs.warmMs)
	got["scenario.rep_ms_p90"] = stats.Quantile(costs.warmMs, 0.9)
	rec.Samples["scenario.rep_ms"] = spreadOf(costs.warmMs)
	scaling, err := runnerScaling(ref.reg, sample)
	if err != nil {
		return err
	}
	got["scenario.runner_scaling_2w"] = scaling
	return nil
}

func tracedTrain(inst *trainInstance, m, control *measured, got map[string]float64, rec *runRecord) error {
	var walls, batchShare, selfMs, msPerSim, p50, p90 []float64
	for _, p := range m.passes {
		wall := p.units[0].walls[0]
		e := p.extra
		walls = append(walls, wall)
		batchShare = append(batchShare, e["batch_s"]/wall)
		selfMs = append(selfMs, (wall-e["batch_s"])*1e3/e["rounds"])
		msPerSim = append(msPerSim, e["batch_s"]*1e3/e["sims"])
		p50 = append(p50, e["round_ms_p50"])
		p90 = append(p90, e["round_ms_p90"])
	}
	e := m.passes[0].extra
	sims := e["sims"]
	wall := stats.Median(walls)
	got["optimizer.train_wall_s"] = wall
	got["optimizer.train_score"] = e["train_score"]
	got["optimizer.sims"] = sims
	if total := sims + e["cache_hits"] + e["pruned"]; total > 0 {
		got["optimizer.cache_hit_share"] = e["cache_hits"] / total
		got["optimizer.prune_share"] = e["pruned"] / total
	}
	got["optimizer.batches_per_round"] = e["batches"] / e["rounds"]
	got["optimizer.jobs_per_batch_p50"] = e["jobs_per_batch"]
	got["optimizer.batch_share"] = stats.Median(batchShare)
	got["optimizer.self_ms_per_round"] = stats.Median(selfMs)
	got["optimizer.ms_per_sim"] = stats.Median(msPerSim)
	got["optimizer.sims_per_s"] = sims / wall
	got["optimizer.round_ms_p50"] = stats.Median(p50)
	got["optimizer.round_ms_p90"] = stats.Median(p90)
	rec.Samples["optimizer.train_wall_s"] = spreadOf(walls)

	if inst.coord == nil || control == nil {
		return nil
	}
	got["distrib.wire_bytes_per_sim"] = (e["wire_req_bytes"] + e["wire_resp_bytes"]) / sims
	got["distrib.bytes_per_job_req"] = e["wire_req_bytes"] / sims
	got["distrib.bytes_per_job_resp"] = e["wire_resp_bytes"] / sims
	got["distrib.frames_per_round"] = 2 * e["distrib_batches"] / e["rounds"]
	got["distrib.respawns"] = e["respawns"]
	got["distrib.redispatches"] = e["redispatches"]
	got["distrib.handshake_ms"] = e["handshake_ms"]

	rec.Failed += control.failed
	rec.Notes = append(rec.Notes, control.notes...)
	if control.digest != m.digest {
		rec.Failed++
		rec.Notes = append(rec.Notes, fmt.Sprintf("distributed digest %s differs from the in-process digest %s", m.digest, control.digest))
	}
	if localWall := control.totals().wallS; localWall > 0 {
		got["distrib.overhead_vs_local"] = wall/localWall - 1
	}
	return nil
}
