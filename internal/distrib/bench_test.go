package distrib

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/optimizer"
	"repro/internal/sim"
	"repro/internal/stats"
)

// benchConfig is a mid-sized design range: 8 specimens so a 2- or 4-process
// fleet has a real shard per worker, with specimens long enough that
// simulation work (not per-batch framing) dominates a round, as it does in
// a real training run.
func benchConfig() optimizer.ConfigRange {
	cfg := goldenTrainConfig()
	cfg.Specimens = 8
	cfg.SpecimenDuration = 10 * sim.Second
	return cfg
}

func benchRemy(backend optimizer.BatchRunner) *optimizer.Remy {
	r := optimizer.New(benchConfig(), stats.DefaultObjective(1))
	r.Seed = 42
	// Workers=1 makes the in-process baseline single-threaded, mirroring the
	// 1 inner goroutine each worker process runs: the comparison measures
	// process-level scaling, nothing else.
	r.Workers = 1
	r.CandidateRungs = 1
	r.ImprovementIters = 1
	r.EpochsPerSplit = 1
	r.MaxRules = 32
	r.Backend = backend
	return r
}

// BenchmarkDistribRound measures one optimization round in-process versus
// distributed over 1, 2 and 4 spawned worker processes (re-executions of the
// test binary). The coordinator and its fleet persist across iterations, so
// iterations after the first measure the steady warm-worker state a long
// training run lives in.
func BenchmarkDistribRound(b *testing.B) {
	run := func(b *testing.B, backend optimizer.BatchRunner) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := benchRemy(backend).Optimize(nil, 1); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("inprocess", func(b *testing.B) { run(b, nil) })
	for _, procs := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			c, err := NewCoordinator(reexecFactory{}, Options{Procs: procs})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			run(b, c)
		})
	}
}

// BenchmarkBatchCodec carries one improvement-step batch — 16 WithAction
// candidates of one incumbent × 4 specimens — the whole way across:
// encodeJobs → WriteFrame → ReadFrame → decodeJobs. A frame of jobs that
// share one opaque tree measures framing only; this one sees what a batch's
// candidate trees cost, for a young tree and for a ≥ 150-rule one.
func BenchmarkBatchCodec(b *testing.B) {
	for _, rules := range []int{15, 150} {
		b.Run(fmt.Sprintf("rules=%d", rules), func(b *testing.B) {
			tree := splitTree(b, rules)
			jobs := specimenJobs(candidates(b, tree, tree.NumWhiskers()/2, 16), 4)
			var wire bytes.Buffer
			conn := NewConn(&wire, &wire)
			sent := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req, err := encodeJobs(jobs)
				if err != nil {
					b.Fatal(err)
				}
				if err := conn.WriteFrame(&Frame{Type: TypeEval, Eval: req}); err != nil {
					b.Fatal(err)
				}
				sent += wire.Len()
				f, err := conn.ReadFrame()
				if err != nil {
					b.Fatal(err)
				}
				if got, err := decodeJobs(f.Eval); err != nil || len(got) != len(jobs) {
					b.Fatalf("%d jobs decoded from %d: %v", len(got), len(jobs), err)
				}
			}
			perJob := float64(b.N * len(jobs))
			b.ReportMetric(float64(sent)/perJob, "B/job")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/perJob, "ns/job")
		})
	}
}
