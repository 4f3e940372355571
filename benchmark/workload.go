package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/harness"
	"repro/internal/scenario"
)

// runConfig is one invocation: a workload, the seed every input derives
// from, how long to measure, and whether to trace.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	size     sizing
}

// unit is one independently timed piece of a pass whose work is identical in
// every pass: a variant's warm repetitions in steady_mix and remy_exec, the
// whole pass in the other workloads. A rate is the units' summed work over
// the sum of each unit's fastest wall (see unitTotals).
type unit struct {
	name  string
	walls []float64 // seconds, one per sample of this pass
	ops   float64   // work per sample
	pkts  float64
	simS  float64
}

// passResult is what one fixed-work pass produced.
type passResult struct {
	units  []unit
	warm   []float64 // walls of warm repetitions, seconds
	ops    int64     // operations attempted in the pass
	pkts   int64     // packets acknowledged in the pass, cold repetitions included
	failed int64
	notes  []string
	digest string
	// extra carries workload-specific exact values (sims, cache hits,
	// wire bytes, train_score, ...), equal in every pass of one run.
	extra map[string]float64
}

// passEnv is what a pass may use from the traced run; the zero value is the
// untraced run.
type passEnv struct {
	tr     *tracer
	parent int
}

// instance is a workload after set-up: everything up to the first timed
// pass has happened.
type instance interface {
	pass(env passEnv) (passResult, error)
	close()
}

// workloadDef names a workload and builds instances of it. t is nil for the
// untraced run; with taps the instance resolves names through the counting
// registry.
type workloadDef struct {
	name  string
	why   string
	setup func(cfg runConfig, t *taps) (instance, error)
}

var workloads = []workloadDef{
	{"steady_mix", "warm packet path: one long-lived dumbbell per AQM/scheme, so sim, netsim, aqm and cc do nearly all the work", setupSteadyMix},
	{"remy_exec", "RemyCC senders from shipped tables: whisker lookup, pacing timers, the trace link and a 10 Gbps world", setupRemyExec},
	{"campaign_grid", "hundreds of short cells through campaign.Executor: spec compile, session build and reset, churn, faults, manifest and report dominate", setupCampaignGrid},
	{"train_rounds", "optimizer.Remy in-process: every job is a cold session of a short sim, so memo, pruning, tree copies and per-job set-up dominate", setupTrainRounds},
	{"train_distrib", "the same training through distrib.Coordinator over in-process pipes: isolates the wire plane; train_rounds is its no-change control", setupTrainDistrib},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// ackedPackets counts the data packets a run delivered and saw acknowledged,
// over static flows and churn classes alike. It is the one packet count every
// workload can observe — the optimizer's batch results carry it as rule-use
// counts — so pkts_per_s means the same thing everywhere.
func ackedPackets(res harness.Result) int64 {
	var n int64
	for _, f := range res.Flows {
		n += f.Transport.AcksReceived
	}
	for _, c := range res.Churn {
		n += c.Transport.AcksReceived
	}
	return n
}

// digestResult folds the integer fields of one repetition's result. The
// repetition index is left to the caller: a warm repetition and a cold run at
// the same seed must digest alike.
func digestResult(d *digest, r scenario.Result) {
	d.int(r.Seed)
	res := r.Res
	d.int(res.Offered)
	d.int(res.Delivered)
	d.int(res.Dropped)
	d.int(res.AcksDropped)
	d.int(res.FaultDropped)
	for _, f := range res.Flows {
		d.int(f.Metrics.BytesAcked)
		d.int(f.Metrics.PacketsSent)
		d.int(f.Metrics.PacketsLost)
		d.int(f.Transport.Retransmissions)
		d.int(f.Transport.Timeouts)
		d.int(f.Transport.AcksReceived)
		d.int(int64(f.Transport.RTTSum))
		d.int(f.Transport.RTTSamples)
		d.int(int64(f.OnPeriods))
	}
	for _, c := range res.Churn {
		d.int(c.Spawned)
		d.int(c.Completed)
		d.int(c.Rejected)
		d.int(c.FCTSumUs)
		d.int(c.Transport.AcksReceived)
	}
	for _, l := range res.Links {
		d.int(l.Delivered)
		d.int(l.Drops)
	}
}

// checkResult returns why a repetition counts as failed, or "".
func checkResult(r scenario.Result) string {
	switch {
	case r.Err != nil:
		return r.Err.Error()
	case r.Res.Delivered > r.Res.Offered:
		return fmt.Sprintf("%s rep %d: delivered %d > offered %d", r.SpecName, r.Rep, r.Res.Delivered, r.Res.Offered)
	case ackedPackets(r.Res) == 0:
		return fmt.Sprintf("%s rep %d: no packet was acknowledged", r.SpecName, r.Rep)
	}
	return ""
}

// repTiming is one repetition as the stream delivered it.
type repTiming struct {
	res  scenario.Result
	wall float64 // seconds since the previous arrival (or the stream's start)
}

// streamTimed runs specs through Runner.Stream with one worker and times
// each repetition by the gap between arrivals: with a single worker the
// stream is sequential, so the gap is the repetition's wall time — compile,
// session build or reset, run, collect and summarize included.
func streamTimed(reg *scenario.Registry, specs []scenario.Spec) []repTiming {
	var out []repTiming
	last := time.Now()
	for res := range (scenario.Runner{Registry: reg, Workers: 1}).Stream(nil, specs) {
		now := time.Now()
		out = append(out, repTiming{res: res, wall: now.Sub(last).Seconds()})
		last = now
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].res.SpecIndex != out[j].res.SpecIndex {
			return out[i].res.SpecIndex < out[j].res.SpecIndex
		}
		return out[i].res.Rep < out[j].res.Rep
	})
	return out
}

// variantsInstance is steady_mix and remy_exec: a fixed list of specs, each
// run for R repetitions through one single-worker stream.
type variantsInstance struct {
	reg   *scenario.Registry
	specs []scenario.Spec
	// samePackets lists pairs of spec indices whose repetitions must agree
	// packet for packet (remy_exec (a) and (b)).
	samePackets [][2]int
}

func (v *variantsInstance) close() {}

func (v *variantsInstance) pass(env passEnv) (passResult, error) {
	id := env.tr.begin("Runner.Stream", env.parent)
	reps := streamTimed(v.reg, v.specs)
	env.tr.end(id)

	out := passResult{ops: int64(len(reps))}
	d := newDigest()
	units := make([]unit, len(v.specs))
	perSpec := make([]*digest, len(v.specs))
	for i, s := range v.specs {
		units[i] = unit{name: s.Name, walls: []float64{0}}
		perSpec[i] = newDigest()
	}
	for _, r := range reps {
		if why := checkResult(r.res); why != "" {
			out.failed++
			out.notes = append(out.notes, why)
			continue
		}
		si := r.res.SpecIndex
		d.int(int64(si))
		d.int(int64(r.res.Rep))
		digestResult(d, r.res)
		digestResult(perSpec[si], r.res)
		out.pkts += ackedPackets(r.res.Res)
		if r.res.Rep == 0 {
			continue // cold: the session is built here
		}
		// Repetitions differ in seed and so in work; the unit's one sample
		// per pass is the wall of all its warm repetitions, which is the
		// same work in every pass.
		out.warm = append(out.warm, r.wall)
		u := &units[si]
		u.walls[0] += r.wall
		u.ops++
		u.pkts += float64(ackedPackets(r.res.Res))
		u.simS += v.specs[si].DurationSeconds
	}
	for _, pair := range v.samePackets {
		a, b := perSpec[pair[0]].String(), perSpec[pair[1]].String()
		if a != b {
			out.failed++
			out.notes = append(out.notes, fmt.Sprintf("%s and %s must deliver the same packets but their digests differ (%s, %s)",
				v.specs[pair[0]].Name, v.specs[pair[1]].Name, a, b))
		}
	}
	out.units = units
	out.digest = d.String()
	return out, nil
}

// dumbbell is the paper's §5.2 world: n senders with exponential 100 kB
// transfers and 0.5 s mean off time over one bottleneck with a 1000-packet
// buffer. The queue kind is left to the scheme (sfqCoDel and XCP bring their
// own router).
func dumbbell(name, scheme string, n int, rateBps, rttMs, simS float64, reps int, cfg runConfig) scenario.Spec {
	return scenario.New(
		scenario.WithName(name),
		scenario.WithLink(rateBps),
		scenario.WithQueue("", 1000),
		scenario.WithDuration(simS),
		scenario.WithSeed(cfg.seed),
		scenario.WithRepetitions(reps),
		scenario.WithFlows(n, scheme, rttMs,
			scenario.ByBytesWorkload(scenario.ExponentialDist(100e3), scenario.ExponentialDist(0.5))),
	)
}

// coldRun runs every spec for one repetition: the cold repetition that ends
// set-up (sessions built, engine pool filled, calendar slabs grown).
func coldRun(reg *scenario.Registry, specs []scenario.Spec) error {
	once := make([]scenario.Spec, len(specs))
	for i, s := range specs {
		s.Repetitions = 1
		once[i] = s
	}
	_, err := scenario.Runner{Registry: reg, Workers: 1}.RunAll(once)
	return err
}

func setupVariants(cfg runConfig, t *taps, build func(runConfig) ([]scenario.Spec, [][2]int)) (instance, error) {
	trees, err := loadRemyTrees()
	if err != nil {
		return nil, err
	}
	reg, err := buildRegistry(t, trees)
	if err != nil {
		return nil, err
	}
	specs, same := build(cfg)
	if err := coldRun(reg, specs); err != nil {
		return nil, err
	}
	return &variantsInstance{reg: reg, specs: specs, samePackets: same}, nil
}

// steadySchemes is one variant per AQM/scheme pairing, so a gain for one
// discipline that costs another stays visible.
var steadySchemes = []string{"newreno", "cubic", "cubic/sfqcodel", "xcp", "vegas"}

func setupSteadyMix(cfg runConfig, t *taps) (instance, error) {
	return setupVariants(cfg, t, func(cfg runConfig) ([]scenario.Spec, [][2]int) {
		var specs []scenario.Spec
		for _, scheme := range steadySchemes {
			specs = append(specs, dumbbell(scheme, scheme, 8, 15e6, 150, cfg.size.steadySimS, cfg.size.steadyReps, cfg))
		}
		return specs, nil
	})
}

func setupRemyExec(cfg runConfig, t *taps) (instance, error) {
	return setupVariants(cfg, t, func(cfg runConfig) ([]scenario.Spec, [][2]int) {
		sz := cfg.size
		a := dumbbell("a-delta1", schemeRemy, 8, 15e6, 150, sz.steadySimS, sz.remyReps, cfg)
		b := dumbbell("b-delta1-deep", schemeRemyDeep, 8, 15e6, 150, sz.steadySimS, sz.remyReps, cfg)
		// (c) is not rep-invariant: the link model draws a fresh trace per
		// repetition, so trace generation and session build recur.
		c := dumbbell("c-delta1-verizon", schemeRemy, 4, 0, 50, sz.steadySimS, sz.remyReps, cfg)
		c.Link = scenario.LinkSpec{Model: "verizon"}
		d := scenario.New(
			scenario.WithName("d-dc-10g"),
			scenario.WithLink(10e9),
			scenario.WithQueue("", 1000),
			scenario.WithDuration(sz.dcSimS),
			scenario.WithSeed(cfg.seed),
			scenario.WithRepetitions(sz.remyReps),
			scenario.WithFlows(sz.dcSenders, schemeRemyDC, 4,
				scenario.ByBytesWorkload(scenario.ExponentialDist(20e6), scenario.ExponentialDist(0.1))),
		)
		return []scenario.Spec{a, b, c, d}, [][2]int{{0, 1}}
	})
}
