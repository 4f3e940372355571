// Command campaign runs fleet-scale sweep campaigns: a JSON sweep spec
// (internal/campaign.SweepSpec) expands into a grid of scenario cells that
// execute across a worker pool, each attempt under the internal/supervise
// watchdog, checkpoint to a JSONL manifest as they finish, and consolidate
// into one versioned JSON report plus a flat CSV. A campaign can be split
// across processes or machines with -shard; the merged shard manifests
// produce a report byte-identical to a single-process run.
//
//	campaign run -spec examples/campaigns/parking_lot_churn.json -out out/
//	campaign run -spec sweep.json -out out/ -shard 0/3   # one of three shards
//	campaign resume -spec sweep.json -out out/ -shard 0/3
//	campaign merge-shards -spec sweep.json -out out/ out/manifest-*.jsonl
//	campaign report out/report.json
//
// Interrupting a run (SIGINT/SIGTERM) stops it at once with the manifest
// intact: cells in flight, even hung ones, are abandoned and run again on
// resume. `campaign resume` with the same arguments picks up where it stopped.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"repro/internal/campaign"
)

func main() {
	log.SetFlags(0)
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(os.Args[2:], false)
	case "resume":
		err = cmdRun(os.Args[2:], true)
	case "merge-shards":
		err = cmdMerge(os.Args[2:])
	case "report":
		err = cmdReport(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		log.Printf("campaign: unknown subcommand %q", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		// Package errors already carry the "campaign:" prefix.
		log.Fatal(err)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: campaign <subcommand> [flags]

  run          execute a sweep (or one shard of it) and checkpoint a manifest
  resume       alias of run that requires an existing manifest to continue from
  merge-shards consolidate shard manifests into one report (JSON + CSV)
  report       print a human-readable summary of a report.json

run/resume flags:
  -spec file.json   sweep definition (required)
  -out dir          output directory (default ".")
  -shard i/N        run only cells with index ≡ i (mod N)
  -workers n        concurrent repetitions, across cells (default GOMAXPROCS)
  -cell-timeout d   wall-clock watchdog per cell attempt (e.g. 5m; 0 = none)
  -retries n        extra attempts before a failing cell is quarantined (default 1)
  -quiet            suppress per-cell progress

exit codes: 0 success, 2 usage, 3 interrupted (resume to continue),
4 completed with quarantined cells (see the report's failed_cells section)
`)
}

// shardValue parses "-shard i/N".
type shardValue struct{ shard, numShards int }

func (s *shardValue) String() string {
	if s.numShards <= 1 {
		return ""
	}
	return fmt.Sprintf("%d/%d", s.shard, s.numShards)
}

func (s *shardValue) Set(v string) error {
	var i, n int
	if _, err := fmt.Sscanf(v, "%d/%d", &i, &n); err != nil {
		return fmt.Errorf("want i/N (e.g. 0/3), got %q", v)
	}
	if n < 1 || i < 0 || i >= n {
		return fmt.Errorf("shard %d/%d out of range", i, n)
	}
	s.shard, s.numShards = i, n
	return nil
}

// manifestName returns the canonical per-shard manifest filename.
func manifestName(shard, numShards int) string {
	if numShards <= 1 {
		return "manifest-0of1.jsonl"
	}
	return fmt.Sprintf("manifest-%dof%d.jsonl", shard, numShards)
}

func cmdRun(args []string, requireManifest bool) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	specFile := fs.String("spec", "", "sweep definition JSON (required)")
	outDir := fs.String("out", ".", "output directory for manifest and report")
	var shard shardValue
	fs.Var(&shard, "shard", "i/N: run only cells with index ≡ i (mod N)")
	workers := fs.Int("workers", 0, "concurrent repetitions, across cells (0 = GOMAXPROCS)")
	cellTimeout := fs.Duration("cell-timeout", 0, "wall-clock watchdog per cell attempt (0 = none)")
	retries := fs.Int("retries", 1, "extra attempts before a failing cell is quarantined")
	quiet := fs.Bool("quiet", false, "suppress per-cell progress")
	fs.Parse(args)
	if *specFile == "" {
		return fmt.Errorf("run: -spec is required")
	}
	sweep, err := campaign.ReadFile(*specFile)
	if err != nil {
		return err
	}
	if err := sweep.Validate(); err != nil {
		return err
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	manifest := filepath.Join(*outDir, manifestName(shard.shard, shard.numShards))
	if requireManifest {
		if _, err := os.Stat(manifest); err != nil {
			return fmt.Errorf("resume: no manifest at %s (did you mean `campaign run`?)", manifest)
		}
	}

	// SIGINT/SIGTERM stop the run at the next cell boundary; the manifest
	// keeps everything already finished.
	stop := make(chan struct{})
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		log.Printf("campaign: interrupt received; finishing in-flight checkpoints")
		close(stop)
	}()

	exec := campaign.Executor{
		Workers:     *workers,
		CellTimeout: *cellTimeout,
		Retries:     *retries,
	}
	if !*quiet {
		exec.Logf = log.Printf
	}
	records, err := exec.Run(sweep, campaign.RunOptions{
		Shard:        shard.shard,
		NumShards:    shard.numShards,
		ManifestPath: manifest,
		Stop:         stop,
	})
	if err == campaign.ErrInterrupted {
		log.Printf("campaign: interrupted with %d cells checkpointed in %s; continue with `campaign resume`", len(records), manifest)
		os.Exit(3)
	}
	if err != nil {
		return err
	}
	log.Printf("campaign: shard complete: %d cells in %s", len(records), manifest)

	// A whole-campaign run (no sharding) consolidates immediately; sharded
	// runs wait for merge-shards.
	if shard.numShards <= 1 {
		if err := writeReport(sweep, records, *outDir); err != nil {
			return err
		}
	}
	// The run itself succeeded, but quarantined cells make the outcome
	// partial: name them and exit non-zero so scripts notice.
	if failed := failedRecords(records); len(failed) > 0 {
		log.Printf("campaign: %d cell(s) failed and were quarantined:", len(failed))
		for _, rec := range failed {
			log.Printf("campaign:   %s (attempts %d): %s", rec.ID, rec.Attempts, rec.Failure)
		}
		os.Exit(4)
	}
	return nil
}

// failedRecords filters the quarantined cells of a record set.
func failedRecords(records []campaign.CellRecord) []campaign.CellRecord {
	var out []campaign.CellRecord
	for _, rec := range records {
		if rec.Failure != "" {
			out = append(out, rec)
		}
	}
	return out
}

func cmdMerge(args []string) error {
	fs := flag.NewFlagSet("merge-shards", flag.ExitOnError)
	specFile := fs.String("spec", "", "sweep definition JSON (required)")
	outDir := fs.String("out", ".", "output directory for the merged report")
	fs.Parse(args)
	if *specFile == "" {
		return fmt.Errorf("merge-shards: -spec is required")
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("merge-shards: pass the shard manifest files as arguments")
	}
	sweep, err := campaign.ReadFile(*specFile)
	if err != nil {
		return err
	}
	records, err := campaign.ReadManifests(fs.Args())
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	return writeReport(sweep, records, *outDir)
}

// writeReport consolidates records into report.json and report.csv.
func writeReport(sweep campaign.SweepSpec, records []campaign.CellRecord, outDir string) error {
	rep, err := campaign.BuildReport(sweep, records)
	if err != nil {
		return err
	}
	data, err := rep.Encode()
	if err != nil {
		return err
	}
	jsonPath := filepath.Join(outDir, "report.json")
	if err := os.WriteFile(jsonPath, data, 0o644); err != nil {
		return err
	}
	csvPath := filepath.Join(outDir, "report.csv")
	f, err := os.Create(csvPath)
	if err != nil {
		return err
	}
	if err := rep.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	log.Printf("campaign: report: %d cells, %d flows completed -> %s, %s",
		rep.Totals.Cells, rep.Totals.FlowsCompleted, jsonPath, csvPath)
	return nil
}

func cmdReport(args []string) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("report: pass exactly one report.json path")
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	rep, err := campaign.DecodeReport(data)
	if err != nil {
		return err
	}
	fmt.Printf("campaign %q: %d cells, %d reps, %d flow samples, %d/%d flows completed/spawned (%d rejected)\n",
		rep.Campaign, rep.Totals.Cells, rep.Totals.Reps, rep.Totals.FlowSamples,
		rep.Totals.FlowsCompleted, rep.Totals.FlowsSpawned, rep.Totals.FlowsRejected)
	fmt.Printf("%-56s %10s %10s %9s %10s %10s %10s\n",
		"cell", "tput Mbps", "delay ms", "utility", "FCT mean", "p95", "p99")
	for _, c := range rep.Cells {
		a := c.Aggregate
		fmt.Printf("%-56s %10.3f %10.2f %9.3f %7.1f ms %7.1f ms %7.1f ms\n",
			c.ID, a.ThroughputMbps.Mean, a.QueueDelayMs.Mean, a.UtilityMean,
			a.FCT.MeanMs, a.FCT.P95Ms, a.FCT.P99Ms)
	}
	if len(rep.FailedCells) > 0 {
		fmt.Printf("failed cells (%d, quarantined):\n", len(rep.FailedCells))
		for _, fc := range rep.FailedCells {
			fmt.Printf("  %-54s attempts %d: %s\n", fc.ID, fc.Attempts, fc.Failure)
		}
	}
	return nil
}
