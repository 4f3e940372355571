// Command experiments regenerates the paper's tables and figures. Each
// experiment is identified by the paper's numbering:
//
//	experiments -list
//	experiments -run fig4
//	experiments -run all -runs 32 -duration 60
//
// Fidelity flags trade wall-clock time for statistical precision; the
// paper's own budget (128 runs of 100 s) is available via -paper.
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"repro/internal/exp"
	"repro/internal/sim"
)

func main() {
	log.SetFlags(0)
	list := flag.Bool("list", false, "list available experiments and exit")
	run := flag.String("run", "", "experiment id to run (or 'all')")
	runs := flag.Int("runs", 0, "override the number of runs per scheme")
	duration := flag.Float64("duration", 0, "override the simulated seconds per run")
	seed := flag.Int64("seed", 1, "random seed")
	workers := flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
	assets := flag.String("assets", "", "directory holding RemyCC assets (default: <repo>/assets)")
	paper := flag.Bool("paper", false, "use the paper's full budget (128 runs of 100 s) — slow")
	quick := flag.Bool("quick", false, "use the quick budget (2 runs of 8 s)")
	verbose := flag.Bool("v", false, "log progress")
	flag.Parse()

	if *list || *run == "" {
		fmt.Println("available experiments:")
		for _, e := range exp.Experiments() {
			fmt.Printf("  %-8s %s\n", e.ID, e.Title)
		}
		if *run == "" {
			fmt.Println("\nusage: experiments -run <id|all> [-runs N] [-duration SECONDS] [-paper] [-quick]")
		}
		return
	}

	if *paper && *quick {
		log.Fatal("experiments: -paper and -quick are mutually exclusive; pick one budget")
	}
	budget := "default"
	cfg := exp.DefaultRunConfig()
	if *paper {
		budget = "paper"
		cfg = exp.PaperRunConfig()
	}
	if *quick {
		budget = "quick"
		cfg = exp.QuickRunConfig()
	}
	if *runs > 0 {
		cfg.Runs = *runs
	}
	if *duration > 0 {
		cfg.Duration = sim.FromSeconds(*duration)
	}
	cfg.Seed = *seed
	cfg.Workers = *workers
	if *assets != "" {
		cfg.AssetsDir = *assets
	}
	if *verbose {
		cfg.Logf = log.Printf
		overridden := ""
		if *runs > 0 || *duration > 0 {
			overridden = " (with -runs/-duration overrides)"
		}
		log.Printf("budget in effect: %s%s — %d runs of %v per scheme", budget, overridden, cfg.Runs, cfg.Duration)
	}

	var ids []string
	if strings.EqualFold(*run, "all") {
		for _, e := range exp.Experiments() {
			ids = append(ids, e.ID)
		}
	} else {
		ids = strings.Split(*run, ",")
	}

	for _, id := range ids {
		e, err := exp.Lookup(strings.TrimSpace(id))
		if err != nil {
			log.Fatalf("experiments: %v", err)
		}
		log.Printf("running %s (%s) with %d runs of %v ...", e.ID, e.Title, cfg.Runs, cfg.Duration)
		report, err := e.Run(cfg)
		if err != nil {
			log.Fatalf("experiments: %s: %v", e.ID, err)
		}
		fmt.Println(report.String())
	}
}
