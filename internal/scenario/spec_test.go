package scenario

import (
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/workload"
)

// sampleSpec returns a fully populated declarative spec (no programmatic
// hooks, so it must survive JSON round-trips losslessly).
func sampleSpec() Spec {
	return New(
		WithName("roundtrip"),
		WithLink(15e6),
		WithQueue(QueueSfqCoDel, 500),
		WithECNThreshold(65),
		WithDuration(12.5),
		WithSeed(42),
		WithRepetitions(3),
		WithMTU(1500),
		WithFlows(4, "cubic", 150, ByBytesWorkload(ExponentialDist(100e3), ExponentialDist(0.5))),
		WithFlow(FlowSpec{
			Scheme:   "newreno",
			RTTMs:    50,
			Workload: ByTimeWorkload(ConstantDist(2), ParetoDist(147, 0.5, 40)),
		}),
	)
}

func TestSpecJSONRoundTrip(t *testing.T) {
	spec := sampleSpec()
	data, err := spec.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec, back) {
		t.Errorf("spec round-trip mismatch:\n got %+v\nwant %+v", back, spec)
	}
	// A second marshal must be byte-identical.
	data2, err := back.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Error("re-marshaled spec differs")
	}
}

func TestSpecFileRoundTrip(t *testing.T) {
	spec := sampleSpec()
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := spec.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec, back) {
		t.Error("file round-trip mismatch")
	}
	if _, err := ReadFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestSpecValidate(t *testing.T) {
	good := sampleSpec()
	if err := good.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}

	bad := good
	bad.Flows = nil
	if bad.Validate() == nil {
		t.Error("spec without flows accepted")
	}

	bad = good
	bad.DurationSeconds = 0
	if bad.Validate() == nil {
		t.Error("zero duration accepted")
	}

	bad = good
	bad.Link = LinkSpec{}
	if bad.Validate() == nil {
		t.Error("fixed link without a rate accepted")
	}
	bad.Link.Model = "verizon"
	if err := bad.Validate(); err != nil {
		t.Errorf("trace-model link rejected: %v", err)
	}

	bad = sampleSpec()
	bad.Flows[0].Scheme = ""
	if bad.Validate() == nil {
		t.Error("flow without scheme accepted")
	}

	bad = sampleSpec()
	bad.Flows[0].RTTMs = -1
	if bad.Validate() == nil {
		t.Error("negative RTT accepted")
	}

	bad = sampleSpec()
	bad.Flows[0].Workload.On = DistSpec{}
	if bad.Validate() == nil {
		t.Error("invalid workload accepted")
	}

	// Out-of-range numbers must be rejected, not silently replaced by the
	// defaults their zero values select.
	for name, mut := range map[string]func(*Spec){
		"negative queue capacity":   func(s *Spec) { s.Queue.CapacityPackets = -5 },
		"negative ecn threshold":    func(s *Spec) { s.Queue.ECNThresholdPackets = -3 },
		"negative mtu":              func(s *Spec) { s.MTU = -1 },
		"negative rate under model": func(s *Spec) { s.Link = LinkSpec{Model: "verizon", RateBps: -4} },
		"negative xcp capacity":     func(s *Spec) { s.Link.XCPCapacityBps = -1 },
	} {
		bad = sampleSpec()
		mut(&bad)
		if bad.Validate() == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestDistSpecCompile(t *testing.T) {
	cases := []struct {
		spec DistSpec
		mean float64
	}{
		{ConstantDist(7), 7},
		{UniformDist(1, 3), 2},
		{ExponentialDist(5), 5},
		{ParetoDist(147, 2, 40), 40 + 2*147/(2-1)},
	}
	// One box serves every type in turn, as a flow's boxes do from world to
	// world.
	var box distBox
	for _, c := range cases {
		if err := c.spec.Validate(); err != nil {
			t.Fatalf("%v: %v", c.spec, err)
		}
		if got := c.spec.compile(&box).Mean(); got != c.mean {
			t.Errorf("%v: mean %v, want %v", c.spec, got, c.mean)
		}
	}
	for _, bad := range []DistSpec{
		{},
		{Type: "gaussian"},
		{Type: DistExponential, Mean: -1},
		{Type: DistConstant},
		{Type: DistPareto, Xm: 0, Alpha: 1},
		{Type: DistUniform, Lo: 3, Hi: 1},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("bad dist %+v accepted", bad)
		}
	}
}

func TestWorkloadSpecCompile(t *testing.T) {
	var on, off distBox
	w := ByTimeWorkload(ExponentialDist(5), ConstantDist(2)).compile(&on, &off)
	if w.Mode != workload.ByTime || w.On.Mean() != 5 || w.Off.Mean() != 2 {
		t.Errorf("compiled workload = %v", w)
	}
	if err := (WorkloadSpec{Mode: "sometimes", On: ConstantDist(1), Off: ConstantDist(1)}).Validate(); err == nil {
		t.Error("unknown workload mode accepted")
	}
}

func TestICSIDistMatchesPaperModel(t *testing.T) {
	d := ICSIDist(16384)
	if d.Type != DistPareto || d.Xm != 147 || d.Alpha != 0.5 || d.Shift != 40+16384 {
		t.Errorf("ICSIDist = %+v", d)
	}
}

func TestDeriveSeed(t *testing.T) {
	if DeriveSeed(99, 0) != 99 {
		t.Error("rep 0 must use the base seed")
	}
	seen := map[int64]bool{}
	for rep := 0; rep < 100; rep++ {
		s := DeriveSeed(1, rep)
		if seen[s] {
			t.Fatalf("seed collision at rep %d", rep)
		}
		seen[s] = true
	}
	if DeriveSeed(1, 5) == DeriveSeed(2, 5) {
		t.Error("different base seeds must derive different rep seeds")
	}
	// Adjacent base seeds must produce disjoint repetition streams: a naive
	// base+rep mix would make seed(b, r) collide with seed(b+1, r-1).
	streams := map[int64]bool{}
	for base := int64(1); base <= 4; base++ {
		for rep := 1; rep < 32; rep++ {
			s := DeriveSeed(base, rep)
			if streams[s] {
				t.Fatalf("seed collision across bases at base=%d rep=%d", base, rep)
			}
			streams[s] = true
		}
	}
}

func TestQueueKindForSkipsProgrammaticFlows(t *testing.T) {
	spec := New(
		WithLink(10e6),
		WithDuration(1),
		WithFlow(FlowSpec{
			Scheme:    "not-registered-anywhere",
			RTTMs:     100,
			Workload:  ByTimeWorkload(ConstantDist(1), ConstantDist(1)),
			Algorithm: NewReno().New,
		}),
	)
	kind, err := spec.QueueKindFor(Default())
	if err != nil {
		t.Fatalf("programmatic flow forced a registry lookup: %v", err)
	}
	if kind != QueueDropTail {
		t.Errorf("kind = %q", kind)
	}
}
