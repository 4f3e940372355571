package main

import (
	"bytes"
	"io"
	"math"
	"testing"

	"repro/internal/stats"
)

func TestQuantileHelpers(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.9, 4.6}} {
		if got := stats.Quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("stats.Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its argument in place")
	}
	if got := stats.Median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median of an even sample = %v, want 2.5", got)
	}
	if stats.Quantile(nil, 0.5) != 0 {
		t.Error("quantile of an empty sample must be 0")
	}
	s := spreadOf([]float64{90, 100, 110})
	if s.N != 3 || s.P50 != 100 || math.Abs(s.rel()-0.1) > 1e-12 {
		t.Errorf("spreadOf = %+v rel %v", s, s.rel())
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "batch", ID: 0, Parent: -1, StartNs: 0, EndNs: 100},
		// Two workers serving the batch at once, then a straggler that runs
		// past the parent's end.
		{Name: "worker", ID: 1, Parent: 0, StartNs: 10, EndNs: 50},
		{Name: "worker", ID: 2, Parent: 0, StartNs: 30, EndNs: 70},
		{Name: "worker", ID: 3, Parent: 0, StartNs: 90, EndNs: 120},
		{Name: "frame", ID: 4, Parent: 1, StartNs: 10, EndNs: 20},
	}
	self := selfTimes(spans)
	// Covered: [10,70) and [90,100) = 70 of the batch's 100.
	if self[0] != 30 {
		t.Errorf("batch self time = %d, want 30", self[0])
	}
	if self[1] != 30 || self[2] != 40 || self[4] != 10 {
		t.Errorf("child self times = %d %d %d, want 30 40 10", self[1], self[2], self[4])
	}
	var worker layerTime
	for _, l := range rollUp(spans) {
		if l.Name == "worker" {
			worker = l
		}
	}
	if worker.Count != 3 || math.Abs(worker.TotalMs-110e-6) > 1e-12 {
		t.Errorf("roll-up of worker = %+v", worker)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100}
	cases := []struct {
		name   string
		b      []float64
		better string
		want   string
	}{
		{"unchanged", []float64{100, 100, 101, 99}, "higher", "ok"},
		{"slower", []float64{80, 81, 79, 80}, "higher", "REGRESSION"},
		{"faster", []float64{120, 121, 119, 120}, "higher", "ok"},
		{"lower is better and it rose", []float64{120, 121, 119, 120}, "lower", "REGRESSION"},
		{"noisy", []float64{70, 100, 130, 100}, "higher", "unresolved"},
		{"noisy but every run better", []float64{150, 200, 250, 300}, "higher", "ok (every run better)"},
	}
	for _, c := range cases {
		if _, _, got := verdict(base, c.b, c.better, 0.10); got != c.want {
			t.Errorf("%s: verdict = %q, want %q", c.name, got, c.want)
		}
	}
}

func smokeConfig(workload string, trace bool) runConfig {
	return runConfig{workload: workload, seed: 7, seconds: 0, trace: trace, size: smokeSizing}
}

// TestDigestStableAndDecoratorsTransparent runs a 1-sim-second steady_mix
// twice untraced and once behind the counting registry: all three digests
// must agree, and the decorators must have counted something.
func TestDigestStableAndDecoratorsTransparent(t *testing.T) {
	cfg := smokeConfig("steady_mix", false)
	digests := make([]string, 0, 3)
	for i := 0; i < 2; i++ {
		inst, err := setupSteadyMix(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		p, err := inst.pass(passEnv{parent: -1})
		if err != nil {
			t.Fatal(err)
		}
		if p.failed != 0 {
			t.Fatalf("untraced pass failed %d operations: %v", p.failed, p.notes)
		}
		digests = append(digests, p.digest)
	}
	taps := newTaps(newTracer())
	inst, err := setupSteadyMix(cfg, taps)
	if err != nil {
		t.Fatal(err)
	}
	taps.collect()
	p, err := inst.pass(passEnv{tr: taps.tr, parent: -1})
	if err != nil {
		t.Fatal(err)
	}
	digests = append(digests, p.digest)
	if digests[0] != digests[1] {
		t.Errorf("two untraced runs digest differently: %s, %s", digests[0], digests[1])
	}
	if digests[2] != digests[0] {
		t.Errorf("the counting registry changed the results: traced %s, untraced %s", digests[2], digests[0])
	}
	c := taps.collect()
	if c.Events == 0 || c.Enqueued == 0 || c.OnAck != p.pkts {
		t.Errorf("counts = %+v over %d acknowledged packets: want events, enqueues and one OnAck per packet", c, p.pkts)
	}
}

// TestSmokeEmitsEveryMetric drives every workload, traced and untraced, at
// the smoke sizing, and holds the output to BENCHMARK.json: every metric the
// manifest names is emitted with a finite value, and nothing else is.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	committed, err := readManifest()
	if err != nil {
		t.Fatal(err)
	}
	want, err := buildManifest().encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := committed.encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json is out of date: regenerate it with `go run ./benchmark manifest > BENCHMARK.json`")
	}

	digests := make(map[string]string)
	for _, w := range committed.Workloads {
		for _, trace := range []bool{false, true} {
			rec, err := runWorkload(smokeConfig(w.Name, trace), pinProcs(), io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !rec.Correct || rec.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d notes=%v", w.Name, trace, rec.Correct, rec.Attempted, rec.Failed, rec.Notes)
			}
			names := make(map[string]bool)
			if trace {
				for _, m := range committed.PerLayer {
					names[m.Name] = true
				}
			} else {
				for _, m := range committed.EndToEnd {
					names[m.Name] = true
					if rec.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, rec.Metrics[m.Name].Value)
					}
				}
				digests[w.Name] = rec.Digest
			}
			if len(rec.Metrics) != len(names) {
				t.Errorf("%s trace=%v: %d metrics emitted, manifest names %d", w.Name, trace, len(rec.Metrics), len(names))
			}
			for name := range names {
				v, ok := rec.Metrics[name]
				if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s trace=%v: metric %s missing or not finite", w.Name, trace, name)
				}
			}
		}
	}
	if digests["train_rounds"] == "" || digests["train_rounds"] != digests["train_distrib"] {
		t.Errorf("train_rounds digest %q != train_distrib digest %q", digests["train_rounds"], digests["train_distrib"])
	}
}
