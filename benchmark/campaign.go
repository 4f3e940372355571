package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/campaign"
	"repro/internal/scenario"
)

// gridFamilies and gridSchemes span the scheme × AQM × link cells a
// congestion-control result depends on: churn, multi-hop, unresponsive cross
// traffic, a congested reverse path and a faulty link, under loss-based and
// delay-based schemes and an AQM.
var (
	gridFamilies = []string{"flowchurn", "parkinglot", "crosstraffic", "asymreverse", "lossyoutage"}
	gridSchemes  = []string{"newreno", "cubic", "vegas", "cubic/sfqcodel"}
)

// gridSweep is the in-memory sweep of campaign_grid.
func gridSweep(cfg runConfig) campaign.SweepSpec {
	sz := cfg.size
	return campaign.SweepSpec{
		Name: "benchmark-grid",
		Axes: []campaign.Axis{
			{Name: campaign.AxisFamily, Strings: gridFamilies},
			{Name: campaign.AxisScheme, Strings: gridSchemes},
			{Name: campaign.AxisOfferedLoad, Values: sz.gridLoads},
			{Name: campaign.AxisRTTMs, Values: sz.gridRTTs},
			{Name: campaign.AxisRateScale, Values: sz.gridRates},
			{Name: campaign.AxisBufferPackets, Values: sz.gridBuffers},
		},
		DurationSeconds: sz.cellSimS,
		Seed:            cfg.seed,
		Repetitions:     sz.cellReps,
	}
}

// campaignInstance runs the whole campaign pipeline per pass: execute the
// grid into a manifest, then build, encode and flatten the report.
type campaignInstance struct {
	reg    *scenario.Registry
	sweep  campaign.SweepSpec
	dir    string // temp dir under benchmark/out, removed by close
	passes int
}

func (c *campaignInstance) close() { os.RemoveAll(c.dir) }

// cellTally is what OnCell sums over a pass's repetitions.
type cellTally struct {
	pkts   int64
	failed int64
	notes  []string
}

func (t *cellTally) onCell(cell campaign.Cell, results []scenario.Result) {
	for _, r := range results {
		if r.Err != nil || r.Res.Delivered > r.Res.Offered {
			t.failed++
			t.notes = append(t.notes, fmt.Sprintf("cell %s: %s", cell.ID, checkResult(r)))
			continue
		}
		t.pkts += ackedPackets(r.Res)
	}
}

func (c *campaignInstance) pass(env passEnv) (passResult, error) {
	c.passes++
	manifest := filepath.Join(c.dir, fmt.Sprintf("manifest-%d.jsonl", c.passes))
	defer os.Remove(manifest)

	var tally cellTally
	exec := campaign.Executor{Registry: c.reg, Workers: 2, OnCell: tally.onCell}

	start := time.Now()
	id := env.tr.begin("Executor.Run", env.parent)
	records, err := exec.Run(c.sweep, campaign.RunOptions{ManifestPath: manifest})
	env.tr.end(id)
	if err != nil {
		return passResult{}, err
	}
	id = env.tr.begin("report", env.parent)
	report, err := campaign.BuildReport(c.sweep, records)
	if err != nil {
		return passResult{}, err
	}
	encoded, err := report.Encode()
	if err != nil {
		return passResult{}, err
	}
	var csv bytes.Buffer
	if err := report.WriteCSV(&csv); err != nil {
		return passResult{}, err
	}
	env.tr.end(id)
	wall := time.Since(start).Seconds()

	cells := c.sweep.NumCells()
	out := passResult{ops: int64(cells), pkts: tally.pkts, failed: tally.failed, notes: tally.notes}
	retries := 0
	for _, rec := range records {
		if rec.Failure != "" {
			out.failed++
			out.notes = append(out.notes, fmt.Sprintf("cell %s quarantined: %s", rec.ID, rec.Failure))
		}
		if rec.Attempts > 1 {
			retries += rec.Attempts - 1
		}
	}
	d := newDigest()
	d.bytes(encoded)
	d.bytes(csv.Bytes())
	out.digest = d.String()
	out.units = []unit{{
		name:  "pass",
		walls: []float64{wall},
		ops:   float64(cells),
		pkts:  float64(tally.pkts),
		simS:  float64(cells*c.sweep.Reps()) * c.sweep.DurationSeconds,
	}}
	out.extra = map[string]float64{
		"cells":        float64(cells),
		"retries":      float64(retries),
		"failed_cells": float64(report.Totals.FailedCells),
	}
	return out, nil
}

func setupCampaignGrid(cfg runConfig, t *taps) (instance, error) {
	reg, err := buildRegistry(t, remyTrees{})
	if err != nil {
		return nil, err
	}
	sweep := gridSweep(cfg)
	if err := sweep.Validate(); err != nil {
		return nil, err
	}
	out, err := outDir()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(out, "campaign-")
	if err != nil {
		return nil, err
	}
	c := &campaignInstance{reg: reg, sweep: sweep, dir: dir}
	// One discarded warm-up pass: it fills the engine pool and grows the
	// slabs, so the first measured pass is not the bimodal cold one.
	if _, err := c.pass(passEnv{}); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}
