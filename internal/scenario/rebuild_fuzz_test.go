package scenario

import (
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/harness"
)

// rebuildSpecBytes is how many input bytes FuzzRebuildSequence decodes into
// one spec, and rebuildMaxSpecs how many specs one input yields at most.
const (
	rebuildSpecBytes = 4
	rebuildMaxSpecs  = 8
)

// decodeRebuildSpec makes a valid spec out of four bytes, from a small knob
// space: family (dumbbell, cellular trace, parking lot, cross traffic,
// asymmetric reverse), scheme, flow count, RTT, link rate, buffer, churn on or
// off, faults on or off; the seventh bit of the last byte asks for a second,
// warm repetition.
func decodeRebuildSpec(b []byte) (spec Spec) {
	schemes := []string{"newreno", "cubic", "vegas", "cubic/sfqcodel", "xcp"}
	scheme := schemes[int(b[1])%len(schemes)]
	flows := 1 + int(b[2])%4
	rtt := []float64{10, 40, 100, 150}[int(b[2]>>2)%4]
	rate := []float64{2e6, 10e6, 50e6, 200e6}[int(b[3])%4]
	buffer := []int{0, 20, 100, 1000}[int(b[3]>>2)%4]
	churn, faulty := b[3]&16 != 0, b[3]&32 != 0
	const seconds = 0.4
	w := ByBytesWorkload(ExponentialDist(300_000), ExponentialDist(0.05))
	fc := FamilyConfig{Scheme: scheme, Workload: w, DurationSeconds: seconds, Seed: 3,
		RTTMs: rtt, RateScale: rate / 10e6, BufferPackets: buffer}
	switch int(b[0]) % 5 {
	case 0:
		spec = New(WithLink(rate), WithQueue("", buffer), WithDuration(seconds), WithSeed(3),
			WithFlows(flows, scheme, rtt, w))
	case 1:
		spec = New(WithLinkModel("verizon"), WithQueue("", buffer), WithDuration(seconds), WithSeed(3),
			WithFlows(flows, scheme, rtt, w))
	case 2:
		spec = ParkingLotSpec(fc)
	case 3:
		spec = CrossTrafficSpec(fc)
	default:
		spec = AsymmetricReverseSpec(fc)
	}
	spec.Name = "rebuild"
	var link string
	var path []string
	if spec.Topology != nil {
		link = spec.Topology.Links[0].Name
		path = spec.Flows[0].Path
	}
	if churn {
		spec.Churn = &ChurnSpec{MaxLiveFlows: 32, Classes: []ChurnClassSpec{{
			Scheme: scheme, RTTMs: rtt, Path: path,
			Interarrival: ExponentialDist(0.02),
			Size:         ExponentialDist(30_000),
		}}}
	}
	if faulty {
		spec.Faults = &FaultsSpec{Links: []LinkFaultSpec{{Link: link, Schedule: faults.Schedule{
			Outages: []faults.Outage{{StartS: 0.15, DurationS: 0.05}},
			Loss:    &faults.GilbertElliott{PGoodBad: 0.05, PBadGood: 0.3, LossBad: 0.5},
		}}}}
	}
	spec.Repetitions = 1
	if b[3]&64 != 0 {
		spec.Repetitions = 2
	}
	return spec
}

// coldResults is what a worker must give spec's repetitions: each first
// repetition of a world from a fresh session, and a warm repetition of a
// rep-invariant spec from that same session; ok is false when the spec does
// not compile.
func coldResults(t *testing.T, spec Spec) (want []harness.Result, ok bool) {
	var ss *harness.Session
	for rep := 0; rep < spec.Repetitions; rep++ {
		scn, seed, err := spec.Compile(nil, rep)
		if err != nil {
			return nil, false
		}
		if ss == nil || !spec.RepInvariant() {
			if ss, err = harness.NewSession(scn); err != nil {
				return nil, false
			}
		}
		res, err := ss.Run(seed)
		if err != nil {
			t.Fatalf("cold run of a compiled spec: %v", err)
		}
		want = append(want, res)
	}
	return want, true
}

// FuzzRebuildSequence runs byte-decoded sequences of valid specs through one
// scenario.Worker, so each world is rebuilt out of its predecessor's parts —
// bigger or smaller, with other queues, faults and churn classes. Every
// repetition must equal what a cold build gives it, and no sequence may panic
// or hang.
//
// Run with: go test ./internal/scenario -run '^$' -fuzz FuzzRebuildSequence
func FuzzRebuildSequence(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 2, 3, 7, 0x13, 4, 1, 3, 0x61, 0, 4, 0, 1})
	f.Add([]byte{1, 2, 5, 2, 3, 3, 1, 0x22, 0, 4, 3, 0x43})
	f.Add([]byte{4, 1, 12, 0x35, 3, 0, 2, 0x2a, 2, 2, 9, 0x51, 0, 1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		n := min(len(data)/rebuildSpecBytes, rebuildMaxSpecs)
		specs := make([]Spec, n)
		for i := range specs {
			specs[i] = decodeRebuildSpec(data[i*rebuildSpecBytes:])
		}
		w := Runner{}.NewWorker()
		defer w.Close()
		for i := range specs {
			spec := &specs[i]
			want, ok := coldResults(t, *spec)
			for rep := 0; rep < spec.Repetitions; rep++ {
				got := w.Run(spec, rep)
				if !ok {
					if got.Err == nil {
						t.Fatalf("spec %d rep %d: the worker ran a spec that does not compile cold", i, rep)
					}
					break
				}
				if got.Err != nil {
					t.Fatalf("spec %d rep %d: %v", i, rep, got.Err)
				}
				if !reflect.DeepEqual(got.Res, want[rep]) {
					t.Fatalf("spec %d rep %d (%+v): rebuilt world diverges from a cold build\n got: %+v\nwant: %+v",
						i, rep, *spec, got.Res, want[rep])
				}
			}
		}
	})
}
