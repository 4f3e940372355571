package scenario

import (
	"bytes"
	"path/filepath"
	"testing"
)

// TestExampleFamilySpecs holds the example family files to the constructors
// they illustrate: each file, decoded strictly, must marshal to the same
// bytes as its family built at the file's own scheme, workload, duration,
// seed, repetitions and fault knobs.
func TestExampleFamilySpecs(t *testing.T) {
	onOff := ByBytesWorkload(ExponentialDist(100e3), ExponentialDist(0.5))
	cases := []struct {
		file string
		spec Spec
	}{
		{"parking_lot.json", ParkingLotSpec(FamilyConfig{
			Scheme: "cubic", Workload: onOff, DurationSeconds: 30, Seed: 1, Repetitions: 4,
		})},
		{"asymmetric_reverse.json", AsymmetricReverseSpec(FamilyConfig{
			Scheme: "newreno", Workload: onOff, DurationSeconds: 30, Seed: 1, Repetitions: 4,
		})},
		{"flow_churn.json", FlowChurnSpec(FamilyConfig{
			Scheme: "cubic", Workload: onOff, DurationSeconds: 30, Seed: 1, Repetitions: 4,
			OfferedLoad: 0.5,
		})},
		{"lossy_outage.json", LossyOutageSpec(FamilyConfig{
			Scheme: "newreno", Workload: onOff, DurationSeconds: 30, Seed: 42, Repetitions: 1,
			OutageSeconds: 2, BurstLoss: 0.3,
		})},
	}
	for _, c := range cases {
		got, err := ReadFileStrict(filepath.Join("..", "..", "examples", "scenarios", c.file))
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, err := got.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, err := c.spec.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("%s differs from its family constructor:\n got %s\nwant %s", c.file, gotJSON, wantJSON)
		}
	}
}
