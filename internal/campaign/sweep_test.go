package campaign

import (
	"hash/fnv"
	"reflect"
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
)

// testSweep returns a small valid grid sweep: 2 schemes × 2 loads × 3 RTTs =
// 12 flow-churn cells.
func testSweep() SweepSpec {
	return SweepSpec{
		Name:   "unit",
		Family: "flowchurn",
		Axes: []Axis{
			{Name: AxisScheme, Strings: []string{"newreno", "cubic"}},
			{Name: AxisOfferedLoad, Values: []float64{0.2, 0.4}},
			{Name: AxisRTTMs, Values: []float64{100, 150, 200}},
		},
		DurationSeconds: 2,
		Seed:            20130812,
		Repetitions:     2,
	}
}

func TestSweepJSONRoundTrip(t *testing.T) {
	s := testSweep()
	s.Description = "round-trip probe"
	data, err := s.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if !reflect.DeepEqual(s, back) {
		t.Fatalf("round trip mutated the sweep:\n got %+v\nwant %+v", back, s)
	}
}

func TestUnmarshalRejectsUnknownFieldsAndTrailingData(t *testing.T) {
	if _, err := Unmarshal([]byte(`{"name":"x","familly":"flowchurn"}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := Unmarshal([]byte(`{"name":"x"} {"name":"y"}`)); err == nil {
		t.Fatal("trailing data accepted")
	}
}

func TestSweepValidation(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*SweepSpec)
		wantErr string
	}{
		{"valid", func(s *SweepSpec) {}, ""},
		{"missing name", func(s *SweepSpec) { s.Name = "" }, "needs a name"},
		{"unknown family", func(s *SweepSpec) { s.Family = "dumbbellish" }, "unknown family"},
		{"unknown axis", func(s *SweepSpec) { s.Axes[1].Name = "offeredload" }, "unknown axis"},
		{"duplicate axis", func(s *SweepSpec) { s.Axes[2] = s.Axes[1] }, "duplicate axis"},
		{"duplicate coordinate", func(s *SweepSpec) { s.Axes[1].Values = []float64{0.2, 0.2} }, "repeats coordinate"},
		{"string axis with values", func(s *SweepSpec) { s.Axes[0].Values = []float64{1} }, "values are not allowed"},
		{"numeric axis with strings", func(s *SweepSpec) { s.Axes[1].Strings = []string{"a"}; s.Axes[1].Values = nil }, "needs a non-empty values"},
		{"negative load", func(s *SweepSpec) { s.Axes[1].Values = []float64{-0.2, 0.4} }, "must be positive"},
		{"fractional buffer", func(s *SweepSpec) {
			s.Axes[2] = Axis{Name: AxisBufferPackets, Values: []float64{16.5}}
		}, "positive integer"},
		{"no duration", func(s *SweepSpec) { s.DurationSeconds = 0 }, "duration_seconds"},
		{"no scheme anywhere", func(s *SweepSpec) { s.Axes = s.Axes[1:] }, "need a scheme"},
		{"family field and axis", func(s *SweepSpec) {
			s.Axes = append(s.Axes, Axis{Name: AxisFamily, Strings: []string{"parkinglot"}})
		}, "pick one"},
		{"axes without family", func(s *SweepSpec) { s.Family = "" }, "need a family"},
		{"family axis with unknown member", func(s *SweepSpec) {
			s.Family = ""
			s.Axes = append(s.Axes, Axis{Name: AxisFamily, Strings: []string{"parkinglot", "nope"}})
		}, "unknown family"},
		{"no cells at all", func(s *SweepSpec) { s.Family = ""; s.Axes = nil }, "no cells"},
		{"negative repetitions", func(s *SweepSpec) { s.Repetitions = -1 }, "negative repetitions"},
		{"nameless explicit spec", func(s *SweepSpec) {
			s.Specs = []scenario.Spec{scenario.New(scenario.WithLink(1e6))}
		}, "needs a name"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := testSweep()
			tc.mutate(&s)
			err := s.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

func TestCellEnumeration(t *testing.T) {
	s := testSweep()
	s.Specs = []scenario.Spec{scenario.New(
		scenario.WithName("extra"),
		scenario.WithLink(10e6),
		scenario.WithQueue(scenario.QueueDropTail, 100),
		scenario.WithFlows(1, "newreno", 100, scenario.ByBytesWorkload(scenario.ExponentialDist(100e3), scenario.ExponentialDist(0.5))),
		scenario.WithDuration(1),
	)}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got, want := s.NumCells(), 13; got != want {
		t.Fatalf("NumCells() = %d, want %d", got, want)
	}

	// First axis slowest: cell 0 and 1 differ only in the LAST axis.
	c0, err := s.Cell(0)
	if err != nil {
		t.Fatal(err)
	}
	if want := "family=flowchurn/scheme=newreno/offered_load=0.2/rtt_ms=100"; c0.ID != want {
		t.Fatalf("cell 0 ID = %q, want %q", c0.ID, want)
	}
	c1, _ := s.Cell(1)
	if want := "family=flowchurn/scheme=newreno/offered_load=0.2/rtt_ms=150"; c1.ID != want {
		t.Fatalf("cell 1 ID = %q, want %q", c1.ID, want)
	}
	cLast, _ := s.Cell(11)
	if want := "family=flowchurn/scheme=cubic/offered_load=0.4/rtt_ms=200"; cLast.ID != want {
		t.Fatalf("cell 11 ID = %q, want %q", cLast.ID, want)
	}
	cSpec, _ := s.Cell(12)
	if want := "spec[0]=extra"; cSpec.ID != want {
		t.Fatalf("explicit cell ID = %q, want %q", cSpec.ID, want)
	}
	if cSpec.Scheme != "newreno" {
		t.Fatalf("explicit cell scheme = %q, want newreno", cSpec.Scheme)
	}

	// IDs (and hence seeds) are pairwise distinct.
	seen := make(map[string]bool)
	seeds := make(map[int64]bool)
	for i := 0; i < s.NumCells(); i++ {
		c, err := s.Cell(i)
		if err != nil {
			t.Fatal(err)
		}
		if c.Index != i {
			t.Fatalf("cell %d reports index %d", i, c.Index)
		}
		if seen[c.ID] {
			t.Fatalf("duplicate cell ID %q", c.ID)
		}
		if seeds[c.Seed] {
			t.Fatalf("duplicate cell seed %d (ID %q)", c.Seed, c.ID)
		}
		seen[c.ID] = true
		seeds[c.Seed] = true
	}

	if _, err := s.Cell(13); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	if _, err := s.Cell(-1); err == nil {
		t.Fatal("negative index accepted")
	}
}

// TestCellSeedStability pins the growth contract: appending coordinates to
// the LAST axis, or appending explicit specs, must not move any existing
// cell's ID or seed — old results stay valid when a campaign grows.
func TestCellSeedStability(t *testing.T) {
	small := testSweep()
	grown := testSweep()
	grown.Axes[2].Values = append(grown.Axes[2].Values, 300) // grow the last axis
	grown.Specs = []scenario.Spec{scenario.New(
		scenario.WithName("appended"),
		scenario.WithLink(10e6),
		scenario.WithQueue(scenario.QueueDropTail, 100),
		scenario.WithFlows(1, "cubic", 100, scenario.ByBytesWorkload(scenario.ExponentialDist(100e3), scenario.ExponentialDist(0.5))),
		scenario.WithDuration(1),
	)}

	// Every cell of the small sweep must appear in the grown one with the
	// same ID and seed (at a possibly different index).
	grownByID := make(map[string]Cell)
	for i := 0; i < grown.NumCells(); i++ {
		c, err := grown.Cell(i)
		if err != nil {
			t.Fatal(err)
		}
		grownByID[c.ID] = c
	}
	for i := 0; i < small.NumCells(); i++ {
		c, err := small.Cell(i)
		if err != nil {
			t.Fatal(err)
		}
		g, ok := grownByID[c.ID]
		if !ok {
			t.Fatalf("cell %q vanished after growth", c.ID)
		}
		if g.Seed != c.Seed {
			t.Fatalf("cell %q seed moved after growth: %d -> %d", c.ID, c.Seed, g.Seed)
		}
	}
}

func TestDeriveCellSeedStable(t *testing.T) {
	// Pin the derivation itself: a change to the mixing would silently orphan
	// every existing manifest and report.
	if got := deriveCellSeed(20130812, "family=flowchurn/scheme=cubic/offered_load=0.5"); got != deriveCellSeed(20130812, "family=flowchurn/scheme=cubic/offered_load=0.5") {
		t.Fatal("deriveCellSeed is not a pure function")
	}
	if deriveCellSeed(1, "a") == deriveCellSeed(1, "b") {
		t.Fatal("different IDs derived the same seed")
	}
	if deriveCellSeed(1, "a") == deriveCellSeed(2, "a") {
		t.Fatal("different base seeds derived the same cell seed")
	}
	// The inline FNV-1a is hash/fnv's, over a string or the same bytes.
	for _, id := range []string{"", "a", "spec[0]=x", "family=flowchurn/scheme=cubic/offered_load=0.5", "\xff\x00/="} {
		h := fnv.New64a()
		h.Write([]byte(id))
		want := int64(sim.SplitMix64(sim.SplitMix64(uint64(20130812)) ^ h.Sum64()))
		if got := deriveCellSeed(20130812, id); got != want {
			t.Fatalf("deriveCellSeed(%q) = %d, want %d", id, got, want)
		}
		if got := deriveCellSeed(20130812, []byte(id)); got != want {
			t.Fatalf("deriveCellSeed(%q bytes) = %d, want %d", id, got, want)
		}
	}
}

func TestCellSpecMaterialization(t *testing.T) {
	s := testSweep()
	cell, err := s.Cell(7) // cubic / 0.2 / 150
	if err != nil {
		t.Fatal(err)
	}
	spec, err := cell.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Seed != cell.Seed {
		t.Fatalf("spec seed %d != cell seed %d", spec.Seed, cell.Seed)
	}
	if spec.Repetitions != s.Repetitions {
		t.Fatalf("spec reps %d, want %d", spec.Repetitions, s.Repetitions)
	}
	if spec.DurationSeconds != s.DurationSeconds {
		t.Fatalf("spec duration %g, want %g", spec.DurationSeconds, s.DurationSeconds)
	}
	if spec.Churn == nil {
		t.Fatal("flowchurn cell materialized without churn classes")
	}
	for _, c := range spec.Churn.Classes {
		if c.Scheme != "cubic" {
			t.Fatalf("churn class scheme %q, want cubic", c.Scheme)
		}
		if c.RTTMs != 150 {
			t.Fatalf("churn class RTT %g ms, want 150", c.RTTMs)
		}
	}
	if err := spec.Validate(); err != nil {
		t.Fatalf("materialized spec invalid: %v", err)
	}
}
