package campaign

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/cc/newreno"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// mixedSweep returns a grid whose family axis mixes a churn family with two
// churn-free ones, so that results, rows and sessions a run keeps pass
// between worlds with and without churn classes: 3 families × 2 schemes × 2
// loads = 12 cells.
func mixedSweep() SweepSpec {
	return SweepSpec{
		Name: "mixed",
		Axes: []Axis{
			{Name: AxisFamily, Strings: []string{"flowchurn", "parkinglot", "lossyoutage"}},
			{Name: AxisScheme, Strings: []string{"newreno", "cubic"}},
			{Name: AxisOfferedLoad, Values: []float64{0.2, 0.4}},
		},
		DurationSeconds: 1,
		Seed:            7,
		Repetitions:     2,
	}
}

// runOutputs runs s under e into the manifest opts names and returns the
// manifest's lines and, for a whole run, the report's JSON and CSV.
func runOutputs(t *testing.T, e Executor, s SweepSpec, opts RunOptions) (lines [][]byte, report, csv []byte) {
	t.Helper()
	records, err := e.Run(s, opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	data, err := os.ReadFile(opts.ManifestPath)
	if err != nil {
		t.Fatal(err)
	}
	lines = bytes.SplitAfter(data, []byte("\n"))
	lines = lines[:len(lines)-1] // the empty piece after the last newline
	if len(records) != s.NumCells() {
		return lines, nil, nil // a shard: its report is built from the merge
	}
	rep, err := BuildReport(s, records)
	if err != nil {
		t.Fatalf("BuildReport: %v", err)
	}
	if report, err = rep.Encode(); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	var b bytes.Buffer
	if err := rep.WriteCSV(&b); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	return lines, report, b.Bytes()
}

// TestKeptBuffersUnobservable runs mixedSweep whole on one worker, then as
// three shards, in the order 2/3, 0/3, 1/3, on three workers each, so that
// every result, row block, aggregator and session a run or the pool keeps
// last served another cell, often of another family, than the one it serves
// next. The shards' manifest lines, merged, and the report built from them
// must be byte for byte the whole run's.
func TestKeptBuffersUnobservable(t *testing.T) {
	s := mixedSweep()
	dir := t.TempDir()
	whole, wantJSON, wantCSV := runOutputs(t, Executor{Workers: 1}, s, RunOptions{ManifestPath: filepath.Join(dir, "whole.jsonl")})
	if len(whole) != s.NumCells() {
		t.Fatalf("the whole run wrote %d manifest lines, want %d", len(whole), s.NumCells())
	}

	var merged [][]byte
	var paths []string
	for _, shard := range []int{2, 0, 1} {
		path := filepath.Join(dir, "shard-"+string(rune('0'+shard))+".jsonl")
		paths = append(paths, path)
		lines, _, _ := runOutputs(t, Executor{Workers: 3}, s, RunOptions{Shard: shard, NumShards: 3, ManifestPath: path})
		merged = append(merged, lines...)
	}
	records, err := ReadManifests(paths)
	if err != nil {
		t.Fatal(err)
	}
	// Sort the merged lines by cell index, which ReadManifests keeps in order.
	order := make([]int, len(records))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return records[a].Index - records[b].Index })
	for i, k := range order {
		if i >= len(whole) || !bytes.Equal(merged[k], whole[i]) {
			t.Fatalf("merged manifest line %d differs from the whole run's:\n got %s\nwant %s", i, merged[k], whole[min(i, len(whole)-1)])
		}
	}
	if len(order) != len(whole) {
		t.Fatalf("the shards wrote %d lines, the whole run %d", len(order), len(whole))
	}

	rep, err := BuildReport(s, records)
	if err != nil {
		t.Fatalf("BuildReport(merged): %v", err)
	}
	gotJSON, err := rep.Encode()
	if err != nil {
		t.Fatal(err)
	}
	var gotCSV bytes.Buffer
	if err := rep.WriteCSV(&gotCSV); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) || !bytes.Equal(gotCSV.Bytes(), wantCSV) {
		t.Fatal("the merged shards' report differs from the whole run's")
	}
}

// TestCellAggregatorResetIsNew drives an aggregator through a flow-churn
// cell's repetitions, static flows and churn classes both, resets it, and
// requires it to equal a new one, and to fold the cell again into exactly a
// new one's aggregate.
func TestCellAggregatorResetIsNew(t *testing.T) {
	s := testSweep()
	cell, err := s.Cell(0)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := cell.Spec()
	if err != nil {
		t.Fatal(err)
	}
	results, err := (scenario.Runner{Workers: 1}).RunOne(spec)
	if err != nil {
		t.Fatal(err)
	}
	fold := func(a *cellAggregator) CellAggregate {
		for _, res := range results {
			a.fold(res)
		}
		return a.finalize()
	}
	a := newCellAggregator()
	want := fold(a)
	if want.FlowSamples == 0 || want.FlowsCompleted == 0 {
		t.Fatalf("the cell drove too little through the aggregator: %+v", want)
	}
	a.reset()
	if !reflect.DeepEqual(a, newCellAggregator()) {
		t.Fatalf("a reset aggregator differs from a new one:\n got %+v\nwant %+v", *a, *newCellAggregator())
	}
	if got := fold(a); !reflect.DeepEqual(got, want) {
		t.Fatalf("a reset aggregator folds the cell into %+v, a new one into %+v", got, want)
	}
}

// onceHeldAlgorithm is NewReno whose flow start waits for release the first
// time any of them starts.
type onceHeldAlgorithm struct {
	cc.Algorithm
	release <-chan struct{}
	wedged  *atomic.Bool
}

func (a onceHeldAlgorithm) Reset(now sim.Time) {
	if a.wedged.CompareAndSwap(false, true) {
		<-a.release
	}
	a.Algorithm.Reset(now)
}

// TestAbandonedResultsNeverReused runs a cell whose first attempt wedges in
// its first repetition past the cell timeout, so the attempt is abandoned and
// the cell retried, ahead of healthy cells, on one worker: the worker that
// replaces the wedged one starts the next cell and then runs the retry. The
// wedged repetition is let go once the retry is done, while the later cells
// run, and then writes its result into its abandoned attempt's results. Those must never be a later cell's: every later cell
// sees only its own repetitions (under the race detector, a shared result
// would also be a race), and every record equals that of a run in which
// nothing wedged.
func TestAbandonedResultsNeverReused(t *testing.T) {
	release := make(chan struct{})
	var wedged atomic.Bool
	held := chaosSpec("held", "newreno")
	held.Flows[0].Algorithm = func() cc.Algorithm {
		return onceHeldAlgorithm{newreno.New(), release, &wedged}
	}
	specs := []scenario.Spec{held}
	for _, scheme := range []string{"newreno", "cubic", "vegas", "cubic", "newreno", "vegas"} {
		spec := chaosSpec("good-"+scheme, scheme)
		spec.DurationSeconds = 2
		specs = append(specs, spec)
	}
	sweep := SweepSpec{Name: "abandoned", Specs: specs, Repetitions: 2}

	var released atomic.Bool
	e := Executor{Workers: 1, CellTimeout: 200 * time.Millisecond, Retries: 1, RetryBackoff: time.Millisecond,
		OnCell: func(c Cell, results []scenario.Result) {
			for i, res := range results {
				if res.Rep != i || !strings.HasSuffix(res.SpecName, specs[c.Index].Name) || res.Err != nil {
					t.Errorf("cell %d got repetition %d of %q (err %v) as its repetition %d", c.Index, res.Rep, res.SpecName, res.Err, i)
				}
			}
			if c.Index == 0 && released.CompareAndSwap(false, true) {
				close(release) // the wedged repetition returns while later cells run
			}
		}}
	records, err := e.Run(sweep, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !released.Load() {
		close(release)
	}
	// Nothing outside the pool sees the released repetition return; give it
	// the time its simulation needs to finish writing its result.
	time.Sleep(300 * time.Millisecond)
	if records[0].Attempts != 2 || records[0].Failure != "" {
		t.Fatalf("held cell record %+v; want done on its second attempt", records[0])
	}

	clean, err := (Executor{Workers: 2}).Run(sweep, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range records {
		if !reflect.DeepEqual(records[i].Aggregate, clean[i].Aggregate) {
			t.Errorf("cell %d aggregate %+v, want the clean run's %+v", i, records[i].Aggregate, clean[i].Aggregate)
		}
	}
}
