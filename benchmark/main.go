// Command benchmark is the repository's performance benchmark: five named
// workloads driven through the public API (scenario.Spec/Runner/Registry,
// campaign.Executor, optimizer.Remy/BatchRunner, distrib.Coordinator/Serve),
// the end-to-end metrics of BENCHMARK.json measured with tracing off, and a
// separate traced run that yields the per-layer ladder. See README.md.
//
//	go run ./benchmark --workload steady_mix --seed 1 --seconds 10 --trace 0
//	go run ./benchmark --workload all --out benchmark/out/A.json
//	go run ./benchmark compare benchmark/BASELINE.json benchmark/out/A.json
//	go run ./benchmark manifest > BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:], os.Stdout))
		case "manifest":
			data, err := buildManifest().encode()
			if err != nil {
				fatal(err)
			}
			os.Stdout.Write(data)
			return
		}
	}

	var (
		workload = flag.String("workload", "all", "workload to run, or \"all\"")
		seed     = flag.Int64("seed", 1, "seed every input derives from")
		seconds  = flag.Float64("seconds", runSeconds, "how long to measure; whole fixed-work passes run until it is spent")
		trace    = flag.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
		smoke    = flag.Bool("smoke", false, "tiny sizing that drives every path once; the numbers mean nothing")
		out      = flag.String("out", "", "append the run records to this JSON file")
		label    = flag.String("label", "", "label stored with the records written to --out")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("benchmark: unexpected argument %q", flag.Arg(0)))
	}

	procs := pinProcs()
	size := fullSizing
	if *smoke {
		size = smokeSizing
	}
	names := []string{*workload}
	if *workload == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	for _, name := range names {
		cfg := runConfig{workload: name, seed: *seed, seconds: *seconds, trace: *trace != 0, size: size}
		rec, err := runWorkload(cfg, procs, os.Stdout)
		if err != nil {
			fatal(err)
		}
		rec.Label, rec.Smoke = *label, *smoke
		printRecord(os.Stdout, rec)
		if *out != "" {
			if err := appendRecords(*out, rec); err != nil {
				fatal(err)
			}
		}
		// The driver's contract: the last line of standard output is one
		// JSON object with exactly these keys.
		line, err := json.Marshal(struct {
			Correct   bool                   `json:"correct"`
			Attempted int64                  `json:"attempted"`
			Failed    int64                  `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", line)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}
