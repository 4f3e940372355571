package campaign

import (
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/cc/newreno"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// chaosSpec builds a one-flow explicit spec running the given scheme; the
// chaos schemes inject their failure the moment the flow starts.
func chaosSpec(name, scheme string) scenario.Spec {
	w := scenario.ByTimeWorkload(scenario.ConstantDist(10), scenario.ConstantDist(1))
	w.StartOn = true
	return scenario.New(
		scenario.WithName(name),
		scenario.WithLink(5e6),
		scenario.WithDuration(0.3),
		scenario.WithSeed(7),
		scenario.WithFlow(scenario.FlowSpec{Scheme: scheme, RTTMs: 50, Workload: w}),
	)
}

// chaosSweep mixes two healthy cells with a panicking and a hanging one.
func chaosSweep() SweepSpec {
	return SweepSpec{
		Name: "chaos",
		Specs: []scenario.Spec{
			chaosSpec("good-a", "newreno"),
			chaosSpec("boom", "chaos/panic"),
			chaosSpec("wedge", "chaos/hang"),
			chaosSpec("good-b", "cubic"),
		},
	}
}

// TestFailSafeQuarantineAndResume is the fail-safe contract end to end: a
// campaign containing a genuinely panicking cell and a genuinely hanging cell
// finishes instead of dying, retries each failing cell the configured number
// of times, quarantines both in the manifest, resumes past them without
// re-running anything, and builds a report whose failed_cells section names
// them while the healthy cells' numbers survive intact.
func TestFailSafeQuarantineAndResume(t *testing.T) {
	sweep := chaosSweep()
	manifest := filepath.Join(t.TempDir(), "manifest.jsonl")
	e := Executor{
		Workers:      2,
		CellTimeout:  300 * time.Millisecond,
		Retries:      1,
		RetryBackoff: time.Millisecond,
	}
	records, err := e.Run(sweep, RunOptions{ManifestPath: manifest})
	if err != nil {
		t.Fatalf("Run returned %v; failing cells must quarantine, not abort", err)
	}
	if len(records) != 4 {
		t.Fatalf("got %d records, want 4 (failed cells must still produce records)", len(records))
	}
	byID := make(map[string]CellRecord, len(records))
	for _, rec := range records {
		byID[rec.ID] = rec
	}
	boom := byID["spec[1]=boom"]
	if !strings.Contains(boom.Failure, scenario.ChaosPanicMessage) {
		t.Errorf("panic cell failure %q does not name the injected panic", boom.Failure)
	}
	wedge := byID["spec[2]=wedge"]
	if !strings.Contains(wedge.Failure, "cell timeout") {
		t.Errorf("hang cell failure %q does not name the watchdog timeout", wedge.Failure)
	}
	for _, id := range []string{"spec[1]=boom", "spec[2]=wedge"} {
		if got := byID[id].Attempts; got != 2 {
			t.Errorf("%s ran %d attempts, want 2 (one retry)", id, got)
		}
		if byID[id].Aggregate.Reps != 0 {
			t.Errorf("%s has a non-zero aggregate despite failing", id)
		}
	}
	for _, id := range []string{"spec[0]=good-a", "spec[3]=good-b"} {
		rec := byID[id]
		if rec.Failure != "" {
			t.Errorf("healthy cell %s marked failed: %s", id, rec.Failure)
		}
		if rec.Aggregate.Reps == 0 {
			t.Errorf("healthy cell %s has an empty aggregate", id)
		}
	}

	// The quarantine must be persisted: the manifest carries all four records,
	// failures included.
	persisted, err := ReadManifest(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if len(persisted) != 4 {
		t.Fatalf("manifest has %d records, want 4", len(persisted))
	}

	// Resume: a second run over the same manifest executes nothing — the
	// known-bad cells are skipped along with the finished ones.
	reran := 0
	resume := e
	resume.OnCell = func(Cell, []scenario.Result) { reran++ }
	again, err := resume.Run(sweep, RunOptions{ManifestPath: manifest})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if reran != 0 {
		t.Errorf("resume re-executed %d cells; quarantined cells must be skipped", reran)
	}
	if !reflect.DeepEqual(records, again) {
		t.Error("resumed record set differs from the original run")
	}

	// The report degrades gracefully: healthy cells report, failed cells are
	// named, nothing errors.
	rep, err := BuildReport(sweep, records)
	if err != nil {
		t.Fatalf("BuildReport: %v", err)
	}
	if len(rep.Cells) != 2 || rep.Totals.Cells != 2 {
		t.Errorf("report has %d cells (totals %d), want the 2 healthy ones", len(rep.Cells), rep.Totals.Cells)
	}
	if rep.Totals.FailedCells != 2 || len(rep.FailedCells) != 2 {
		t.Fatalf("report names %d failed cells (totals %d), want 2", len(rep.FailedCells), rep.Totals.FailedCells)
	}
	if rep.FailedCells[0].ID != "spec[1]=boom" || rep.FailedCells[1].ID != "spec[2]=wedge" {
		t.Errorf("failed_cells = %+v; want boom then wedge in index order", rep.FailedCells)
	}
	for _, fc := range rep.FailedCells {
		if fc.Failure == "" || fc.Attempts != 2 {
			t.Errorf("failed cell %s lacks failure detail: %+v", fc.ID, fc)
		}
	}
}

// TestInterruptDuringHungCell closes Stop while a chaos/hang cell runs with no
// CellTimeout to end it: the hung attempt is abandoned, Run returns
// ErrInterrupted within a second, and the manifest holds the cell that
// finished before it.
func TestInterruptDuringHungCell(t *testing.T) {
	sweep := SweepSpec{Name: "hang", Specs: []scenario.Spec{chaosSpec("good-a", "newreno"), chaosSpec("wedge", "chaos/hang")}}
	manifest := filepath.Join(t.TempDir(), "manifest.jsonl")
	stop := make(chan struct{})
	healthyDone := make(chan struct{})
	e := Executor{Workers: 1, OnCell: func(Cell, []scenario.Result) { close(healthyDone) }}
	type runResult struct {
		records []CellRecord
		err     error
	}
	ran := make(chan runResult, 1)
	go func() {
		records, err := e.Run(sweep, RunOptions{ManifestPath: manifest, Stop: stop})
		ran <- runResult{records, err}
	}()
	<-healthyDone
	// The one worker takes the hanging cell next; let it reach the hang.
	time.Sleep(100 * time.Millisecond)
	stopped := time.Now()
	close(stop)
	var got runResult
	select {
	case got = <-ran:
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after Stop while a cell hung")
	}
	if waited := time.Since(stopped); waited > time.Second {
		t.Errorf("Run returned %v after Stop, want within 1s", waited)
	}
	if !errors.Is(got.err, ErrInterrupted) {
		t.Fatalf("Run returned %v, want ErrInterrupted", got.err)
	}
	persisted, err := ReadManifest(manifest)
	if err != nil {
		t.Fatalf("manifest unreadable after the interrupt: %v", err)
	}
	if len(got.records) != 1 || len(persisted) != 1 || persisted[0].ID != "spec[0]=good-a" || !reflect.DeepEqual(got.records, persisted) {
		t.Errorf("records %+v, manifest %+v; want the healthy cell alone in both", got.records, persisted)
	}
}

// TestPanicRecoveryKeepsOtherReps pins the narrower property underneath the
// campaign behavior: a panicking repetition surfaces as Result.Err from the
// scenario runner, and does not take the process (or the other spec) down.
func TestPanicRecoveryIsolatesRepetition(t *testing.T) {
	r := scenario.Runner{Workers: 2}
	results, err := r.RunAll([]scenario.Spec{chaosSpec("boom", "chaos/panic"), chaosSpec("ok", "newreno")})
	if err == nil {
		t.Fatal("expected the panicking spec's error to surface")
	}
	if !strings.Contains(err.Error(), scenario.ChaosPanicMessage) {
		t.Errorf("error %q does not carry the panic message", err)
	}
	var okRes, boomRes int
	for _, res := range results {
		switch res.SpecName {
		case "ok":
			if res.Err == nil && res.Res.Delivered > 0 {
				okRes++
			}
		case "boom":
			if res.Err != nil {
				boomRes++
			}
		}
	}
	if okRes == 0 {
		t.Error("healthy spec produced no successful repetitions alongside the panic")
	}
	if boomRes == 0 {
		t.Error("panicking spec produced no errored repetitions")
	}
}

// probeAlgorithm is NewReno whose every flow start counts itself in flight
// for a few milliseconds of wall clock, recording the most repetitions it
// ever saw in flight at once.
type probeAlgorithm struct {
	cc.Algorithm
	inFlight, peak *atomic.Int32
}

func (a probeAlgorithm) Reset(now sim.Time) {
	n := a.inFlight.Add(1)
	for p := a.peak.Load(); n > p && !a.peak.CompareAndSwap(p, n); p = a.peak.Load() {
	}
	time.Sleep(20 * time.Millisecond)
	a.inFlight.Add(-1)
	a.Algorithm.Reset(now)
}

// TestUnevenCellsFillThePool runs a short cell of one repetition beside a
// long cell of eight on two workers: once the short cell is done, its worker
// must help with the long cell's repetitions, so two of them run at once.
func TestUnevenCellsFillThePool(t *testing.T) {
	var inFlight, peak atomic.Int32
	long := chaosSpec("long", "newreno")
	long.Repetitions = 8
	long.Flows[0].Algorithm = func() cc.Algorithm { return probeAlgorithm{newreno.New(), &inFlight, &peak} }
	short := chaosSpec("short", "newreno")
	short.Repetitions = 1
	sweep := SweepSpec{Name: "uneven", Specs: []scenario.Spec{short, long}}
	records, err := Executor{Workers: 2}.Run(sweep, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 2 || records[1].Aggregate.Reps != 8 {
		t.Fatalf("records %+v; want both cells, the long one with 8 repetitions", records)
	}
	if got := peak.Load(); got != 2 {
		t.Errorf("at most %d of the long cell's repetitions ran at once on 2 workers, want 2", got)
	}
}

// TestWedgedRepetitionKeepsThePool runs a chaos/hang cell, retried twice
// under a short watchdog, on a pool of one worker, with healthy cells after
// it. Each abandoned attempt leaves a repetition wedged for chaosHangSleep;
// the pool must replace its worker each time, so the healthy cells finish
// well inside that sleep. With those repetitions still wedged, a Stop during
// a later run's hanging cell must still end that run within a second.
func TestWedgedRepetitionKeepsThePool(t *testing.T) {
	sweep := SweepSpec{Name: "wedged", Specs: []scenario.Spec{
		chaosSpec("wedge", "chaos/hang"),
		chaosSpec("good-a", "newreno"),
		chaosSpec("good-b", "cubic"),
	}}
	e := Executor{Workers: 1, CellTimeout: 100 * time.Millisecond, Retries: 2, RetryBackoff: time.Millisecond}
	start := time.Now()
	records, err := e.Run(sweep, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("the run took %v, want well inside the %v hang", took, 30*time.Second)
	}
	if len(records) != 3 {
		t.Fatalf("got %d records, want 3", len(records))
	}
	if wedge := records[0]; wedge.Attempts != 3 || !strings.Contains(wedge.Failure, "cell timeout") {
		t.Errorf("wedge record %+v; want quarantined by the watchdog after 3 attempts", wedge)
	}
	for _, rec := range records[1:] {
		if rec.Failure != "" || rec.Aggregate.Reps != 1 {
			t.Errorf("healthy cell %s: record %+v", rec.ID, rec)
		}
	}

	stop := make(chan struct{})
	healthyDone := make(chan struct{})
	e.CellTimeout = 10 * time.Second
	e.OnCell = func(Cell, []scenario.Result) { close(healthyDone) }
	ran := make(chan error, 1)
	go func() {
		hang := SweepSpec{Name: "hang", Specs: []scenario.Spec{chaosSpec("good-a", "newreno"), chaosSpec("wedge", "chaos/hang")}}
		_, err := e.Run(hang, RunOptions{Stop: stop})
		ran <- err
	}()
	<-healthyDone
	time.Sleep(100 * time.Millisecond) // let the hanging cell reach the hang
	stopped := time.Now()
	close(stop)
	select {
	case err = <-ran:
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after Stop while a cell hung")
	}
	if waited := time.Since(stopped); waited > time.Second {
		t.Errorf("Run returned %v after Stop, want within 1s", waited)
	}
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("Run returned %v, want ErrInterrupted", err)
	}
}

// heldAlgorithm is NewReno whose flow start waits for release.
type heldAlgorithm struct {
	cc.Algorithm
	release <-chan struct{}
}

func (a heldAlgorithm) Reset(now sim.Time) {
	<-a.release
	a.Algorithm.Reset(now)
}

// TestTimeoutWithoutRetries runs a cell whose one attempt the watchdog
// abandons, with no retry, beside a healthy one. The cell is quarantined and
// the run goes on; and once the run is over, the abandoned repetition, let go,
// finishes reading its spec — which, under the race detector, must not race
// with the executor forgetting the cell.
func TestTimeoutWithoutRetries(t *testing.T) {
	release := make(chan struct{})
	held := chaosSpec("held", "newreno")
	held.Flows[0].Algorithm = func() cc.Algorithm { return heldAlgorithm{newreno.New(), release} }
	sweep := SweepSpec{Name: "no-retries", Specs: []scenario.Spec{held, chaosSpec("good", "cubic")}}
	records, err := Executor{Workers: 1, CellTimeout: 100 * time.Millisecond}.Run(sweep, RunOptions{})
	close(release)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 2 {
		t.Fatalf("got %d records, want 2", len(records))
	}
	if rec := records[0]; rec.Attempts != 1 || !strings.Contains(rec.Failure, "cell timeout") {
		t.Errorf("held cell record %+v; want quarantined by the watchdog after 1 attempt", rec)
	}
	if rec := records[1]; rec.Failure != "" || rec.Aggregate.Reps != 1 {
		t.Errorf("healthy cell record %+v", rec)
	}
	// Nothing outside the pool sees the released repetition return; give it
	// the time its 0.3 s simulation needs to finish reading its spec.
	time.Sleep(300 * time.Millisecond)
}
