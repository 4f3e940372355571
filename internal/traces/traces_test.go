package traces

import (
	"bytes"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
)

func TestModelValidation(t *testing.T) {
	ok := VerizonLTEModel()
	if err := ok.Validate(); err != nil {
		t.Errorf("Verizon model invalid: %v", err)
	}
	if err := ATTLTEModel().Validate(); err != nil {
		t.Errorf("AT&T model invalid: %v", err)
	}
	bad := ok
	bad.MeanRateBps = 0
	if bad.Validate() == nil {
		t.Error("zero mean rate accepted")
	}
	bad = ok
	bad.MaxRateBps = ok.MeanRateBps / 2
	if bad.Validate() == nil {
		t.Error("max < mean accepted")
	}
	bad = ok
	bad.StepInterval = 0
	if bad.Validate() == nil {
		t.Error("zero step accepted")
	}
	bad = ok
	bad.PacketBytes = 0
	if bad.Validate() == nil {
		t.Error("zero packet size accepted")
	}
	bad = ok
	bad.OutageProbability = 2
	if bad.Validate() == nil {
		t.Error("probability > 1 accepted")
	}
}

func TestGenerateProducesSortedOpportunities(t *testing.T) {
	m := VerizonLTEModel()
	rng := sim.NewRNG(1)
	trace, err := m.Generate(30*sim.Second, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) == 0 {
		t.Fatal("empty trace")
	}
	for i := 1; i < len(trace); i++ {
		if trace[i] < trace[i-1] {
			t.Fatalf("trace not sorted at %d", i)
		}
	}
	if trace[len(trace)-1] >= 30*sim.Second {
		t.Error("opportunity beyond the requested duration")
	}
}

func TestGenerateAverageRateNearMean(t *testing.T) {
	m := VerizonLTEModel()
	rng := sim.NewRNG(2)
	dur := 120 * sim.Second
	trace, err := m.Generate(dur, rng)
	if err != nil {
		t.Fatal(err)
	}
	avg := AverageRateBps(trace, m.PacketBytes, dur)
	// Outages and clamping pull the average below the nominal mean; it
	// should still be the right order of magnitude.
	if avg < 0.3*m.MeanRateBps || avg > 1.7*m.MeanRateBps {
		t.Errorf("average rate %.2f Mbps too far from mean %.2f Mbps", avg/1e6, m.MeanRateBps/1e6)
	}
}

func TestGenerateRateVariesOutsideDesignRange(t *testing.T) {
	// The whole point of the cellular experiment is model mismatch: the
	// instantaneous rate must leave the 10–20 Mbps design range.
	m := VerizonLTEModel()
	rng := sim.NewRNG(3)
	trace, _ := m.Generate(60*sim.Second, rng)
	// Measure per-second delivery counts.
	perSecond := make(map[int]int)
	for _, op := range trace {
		perSecond[int(op/sim.Second)]++
	}
	low, high := 0, 0
	for _, n := range perSecond {
		rate := float64(n) * float64(m.PacketBytes) * 8
		if rate < 9e6 {
			low++
		}
		if rate > 21e6 {
			high++
		}
	}
	if low == 0 || high == 0 {
		t.Errorf("rate never left the design range (low=%d high=%d seconds)", low, high)
	}
}

func TestGenerateDeterministicPerSeed(t *testing.T) {
	m := ATTLTEModel()
	t1, _ := m.Generate(10*sim.Second, sim.NewRNG(7))
	t2, _ := m.Generate(10*sim.Second, sim.NewRNG(7))
	if len(t1) != len(t2) {
		t.Fatal("same seed produced different lengths")
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatal("same seed produced different traces")
		}
	}
	t3, _ := m.Generate(10*sim.Second, sim.NewRNG(8))
	if len(t3) == len(t1) {
		same := true
		for i := range t1 {
			if t1[i] != t3[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical traces")
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	m := VerizonLTEModel()
	if _, err := m.Generate(0, sim.NewRNG(1)); err == nil {
		t.Error("zero duration accepted")
	}
	bad := m
	bad.MeanRateBps = -1
	if _, err := bad.Generate(sim.Second, sim.NewRNG(1)); err == nil {
		t.Error("invalid model accepted")
	}
}

func TestAverageRateBps(t *testing.T) {
	trace := []sim.Time{0, sim.Second / 2, sim.Second}
	got := AverageRateBps(trace, netsim.MTU, 2*sim.Second)
	want := 3.0 * 1500 * 8 / 2
	if got != want {
		t.Errorf("AverageRateBps = %v, want %v", got, want)
	}
	if AverageRateBps(nil, 1500, sim.Second) != 0 || AverageRateBps(trace, 1500, 0) != 0 {
		t.Error("degenerate inputs")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	m := ATTLTEModel()
	trace, _ := m.Generate(5*sim.Second, sim.NewRNG(4))
	var buf bytes.Buffer
	if err := Write(&buf, trace); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(trace) {
		t.Fatalf("round trip length %d vs %d", len(back), len(trace))
	}
	for i := range trace {
		if back[i] != trace[i] {
			t.Fatal("round trip mismatch")
		}
	}
}

func TestReadErrors(t *testing.T) {
	if _, err := Read(strings.NewReader("")); err == nil {
		t.Error("empty trace accepted")
	}
	if _, err := Read(strings.NewReader("abc\n")); err == nil {
		t.Error("non-numeric line accepted")
	}
	if _, err := Read(strings.NewReader("100\n50\n")); err == nil {
		t.Error("decreasing timestamps accepted")
	}
	got, err := Read(strings.NewReader("10\n\n20\n"))
	if err != nil || len(got) != 2 {
		t.Error("blank lines should be skipped")
	}
}

// TestReadBoundaries pins what the loader refuses and what it tolerates: a
// schedule cannot start before time zero, a CRLF file reads like an LF one,
// and a line too long to scan is an error, not a panic.
func TestReadBoundaries(t *testing.T) {
	for _, in := range []string{"-1\n", "5\n-3\n", "-9223372036854775808\n"} {
		if _, err := Read(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), "negative") {
			t.Errorf("Read(%q) = %v, want a negative-timestamp error", in, err)
		}
	}
	crlf, err := Read(strings.NewReader("10\r\n20\r\n\r\n30\r\n"))
	if err != nil || !slices.Equal(crlf, []sim.Time{10, 20, 30}) {
		t.Errorf("CRLF trace read as %v, %v", crlf, err)
	}
	long := "1\n" + strings.Repeat("7", 70_000) + "\n"
	if _, err := Read(strings.NewReader(long)); err == nil {
		t.Error("over-long line accepted")
	}
}

// traceReadSeeds are FuzzTraceRead's starting inputs: a cmd/tracegen output
// (testdata/verizon-0.5s.trace, from tracegen -model verizon -duration 0.5
// -seed 3), a CRLF file, an over-long line, and small edge cases.
func traceReadSeeds(f *testing.F) [][]byte {
	gen, err := os.ReadFile("testdata/verizon-0.5s.trace")
	if err != nil {
		f.Fatal(err)
	}
	return [][]byte{
		gen,
		[]byte("0\r\n1500\r\n1500\r\n9000\r\n"),
		[]byte("1\n" + strings.Repeat("9", 70_000) + "\n2\n"),
		[]byte("+5\n007\n\n-0\n"),
		[]byte("-1\n"),
		[]byte("9223372036854775807\n"),
		[]byte("3\n2\n"),
	}
}

// FuzzTraceRead feeds the trace loader arbitrary bytes. It must never panic;
// whatever it accepts must be a non-empty, non-negative, non-decreasing
// schedule that Write and Read carry back to the identical slice.
func FuzzTraceRead(f *testing.F) {
	for _, seed := range traceReadSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		trace, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(trace) == 0 {
			t.Fatal("accepted an empty trace")
		}
		for i, v := range trace {
			if v < 0 || (i > 0 && v < trace[i-1]) {
				t.Fatalf("accepted timestamp %d at %d of %v", v, i, trace)
			}
		}
		var buf bytes.Buffer
		if err := Write(&buf, trace); err != nil {
			t.Fatal(err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("re-reading the written trace: %v", err)
		}
		if !slices.Equal(back, trace) {
			t.Fatalf("round trip changed the trace: %v -> %v", trace, back)
		}
	})
}
