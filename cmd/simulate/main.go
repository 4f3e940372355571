// Command simulate executes one scenario — from a declarative JSON spec file
// or from flags — with a chosen congestion-control scheme, and prints
// per-flow throughput, delay and loss statistics plus per-repetition
// summaries. It is the quickest way to poke at the simulator:
//
//	simulate -spec examples/scenarios/dumbbell.json -workers 4
//	simulate -scheme cubic -senders 8 -rate 15e6 -rtt 150 -duration 30
//	simulate -scheme remy -remycc assets/remycc_delta1.json -senders 4
//	simulate -scheme vegas -cell verizon -senders 4
//
// Repetition seeds derive deterministically from the base seed, so the same
// spec and seed print identical output regardless of -workers.
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/scenario"
	"repro/internal/stats"
)

func main() {
	log.SetFlags(0)
	specFile := flag.String("spec", "", "JSON scenario spec file (overrides the topology flags)")
	scheme := flag.String("scheme", "newreno", "registered scheme: newreno, vegas, cubic, compound, cubic/sfqcodel, xcp, dctcp, remy")
	remycc := flag.String("remycc", "", "RemyCC rule-table JSON (required for -scheme remy)")
	senders := flag.Int("senders", 8, "number of senders")
	rate := flag.Float64("rate", 15e6, "bottleneck rate in bits/s")
	rtt := flag.Float64("rtt", 150, "round-trip propagation delay in ms")
	buffer := flag.Int("buffer", 1000, "bottleneck buffer in packets")
	duration := flag.Float64("duration", 30, "simulated seconds")
	onKB := flag.Float64("on-kbytes", 100, "mean transfer size in kilobytes (exponential)")
	offSec := flag.Float64("off", 0.5, "mean off time in seconds (exponential)")
	cell := flag.String("cell", "", "replace the fixed-rate link with a synthetic cellular trace: verizon or att")
	seed := flag.Int64("seed", 0, "base random seed (overrides the spec file's seed when set; flag mode defaults to 1)")
	reps := flag.Int("reps", 0, "repetitions (overrides the spec file's count when set; flag mode defaults to 1)")
	workers := flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
	flag.Parse()

	var spec scenario.Spec
	if *specFile != "" {
		// Strict decoding: a typo'd key in a hand-written spec file fails
		// loudly instead of silently running the wrong scenario.
		s, err := scenario.ReadFileStrict(*specFile)
		if err != nil {
			log.Fatalf("simulate: %v", err)
		}
		spec = s
		if *seed != 0 {
			spec.Seed = *seed
		}
	} else {
		workload := scenario.ByBytesWorkload(
			scenario.ExponentialDist(*onKB*1e3),
			scenario.ExponentialDist(*offSec),
		)
		opts := []scenario.Option{
			scenario.WithName(*scheme),
			scenario.WithLink(*rate),
			scenario.WithQueue("", *buffer),
			scenario.WithDuration(*duration),
			scenario.WithFlow(scenario.FlowSpec{
				Scheme:   *scheme,
				RemyCC:   *remycc,
				Count:    *senders,
				RTTMs:    *rtt,
				Workload: workload,
			}),
		}
		if *cell != "" {
			opts = append(opts, scenario.WithLinkModel(*cell))
		}
		spec = scenario.New(opts...)
		spec.Seed = 1
		if *seed != 0 {
			spec.Seed = *seed
		}
	}
	if *reps > 0 {
		spec.Repetitions = *reps
	}

	runner := scenario.Runner{Workers: *workers, Logf: log.Printf}
	results, err := runner.RunOne(spec)
	if err != nil {
		log.Fatalf("simulate: %v", err)
	}

	// Per-flow detail for the first repetition, then one deterministic
	// summary line per repetition (identical output for any -workers value).
	first := results[0]
	if len(first.Res.Flows) > 0 {
		fmt.Printf("%-6s %12s %14s %10s %10s %10s\n", "flow", "tput (Mbps)", "queue delay", "loss rate", "on time", "packets")
		var tputs, delays []float64
		for i, f := range first.Res.Flows {
			m := f.Metrics
			tputs = append(tputs, m.Mbps())
			delays = append(delays, m.QueueingDelayMs())
			fmt.Printf("%-6d %12.3f %11.2f ms %10.4f %8.1f s %10d\n",
				i, m.Mbps(), m.QueueingDelayMs(), m.LossRate(), m.OnDuration, m.PacketsSent)
		}
		fmt.Printf("\nmedians: %.3f Mbps, %.2f ms queueing delay\n", stats.Median(tputs), stats.Median(delays))
	}

	// Churn classes report population counts and flow-completion-time
	// percentiles (streaming aggregates; percentiles are P² estimates).
	if len(first.Res.Churn) > 0 {
		fmt.Printf("\nflow churn (first repetition):\n")
		fmt.Printf("%-6s %-12s %8s %8s %8s %10s %10s %10s %10s\n",
			"class", "scheme", "spawned", "done", "rejected", "mean FCT", "p50", "p95", "p99")
		for _, c := range first.Res.Churn {
			f := c.FCT
			fmt.Printf("%-6d %-12s %8d %8d %8d %7.1f ms %7.1f ms %7.1f ms %7.1f ms\n",
				c.Class, c.Algorithm, c.Spawned, c.Completed, c.Rejected,
				f.Mean*1e3, f.P50*1e3, f.P95*1e3, f.P99*1e3)
		}
		var spawned, completed int64
		for _, res := range results {
			for _, c := range res.Res.Churn {
				spawned += c.Spawned
				completed += c.Completed
			}
		}
		fmt.Printf("flows completed across all repetitions: %d of %d spawned\n", completed, spawned)
	}

	// Topology specs route flows over several links: a single "bottleneck"
	// line would mix network-wide counters with one link's delivery count,
	// so show network totals plus each link's share instead.
	if spec.Topology == nil {
		fmt.Printf("bottleneck: offered %d, delivered %d, dropped %d packets\n",
			first.Res.Offered, first.Res.Delivered, first.Res.Dropped)
	} else {
		fmt.Printf("network: offered %d, dropped %d data packets across all first hops\n",
			first.Res.Offered, first.Res.Dropped)
		fmt.Println("per-link counters:")
		for _, l := range first.Res.Links {
			fmt.Printf("  %-12s delivered %8d pkts %14d bytes   queue drops %6d\n",
				l.Name, l.Delivered, l.DeliveredBytes, l.Drops)
		}
		if first.Res.AcksDropped > 0 {
			fmt.Printf("  acks dropped on reverse links: %d\n", first.Res.AcksDropped)
		}
	}

	fmt.Println("\nper-repetition summaries:")
	for _, res := range results {
		fmt.Printf("rep %3d seed %20d  throughput(Mbps) %s  queue-delay(ms) %s\n",
			res.Rep, res.Seed, res.Throughput, res.Delay)
	}
}
