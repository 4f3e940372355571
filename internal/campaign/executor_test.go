package campaign

import (
	"bytes"
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/scenario"
)

var update = flag.Bool("update", false, "rewrite the golden report fixture")

// encodeRun executes the sweep under the given executor and options and
// returns the canonical report bytes.
func encodeRun(t *testing.T, e Executor, s SweepSpec, opts RunOptions) []byte {
	t.Helper()
	records, err := e.Run(s, opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	rep, err := BuildReport(s, records)
	if err != nil {
		t.Fatalf("BuildReport: %v", err)
	}
	data, err := rep.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return data
}

// TestShardUnionByteIdentical is the campaign determinism contract: running
// the 12-cell sweep as shards 0..2 of 3 in separate executor invocations and
// merging their manifests produces a report byte-identical to the
// single-process run.
func TestShardUnionByteIdentical(t *testing.T) {
	s := testSweep()
	single := encodeRun(t, Executor{Workers: 3}, s, RunOptions{})

	dir := t.TempDir()
	var manifests []string
	for shard := 0; shard < 3; shard++ {
		path := filepath.Join(dir, "manifest-"+string(rune('0'+shard))+"of3.jsonl")
		manifests = append(manifests, path)
		e := Executor{Workers: 2}
		if _, err := e.Run(s, RunOptions{Shard: shard, NumShards: 3, ManifestPath: path}); err != nil {
			t.Fatalf("shard %d: %v", shard, err)
		}
	}
	records, err := ReadManifests(manifests)
	if err != nil {
		t.Fatalf("ReadManifests: %v", err)
	}
	rep, err := BuildReport(s, records)
	if err != nil {
		t.Fatalf("BuildReport(merged): %v", err)
	}
	merged, err := rep.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if !bytes.Equal(single, merged) {
		t.Fatalf("merged shard report differs from the single-process report:\nsingle: %d bytes\nmerged: %d bytes", len(single), len(merged))
	}
}

// TestWorkerCountInvariance pins that the size of the pool the cells'
// repetitions share changes not a single output byte.
func TestWorkerCountInvariance(t *testing.T) {
	s := testSweep()
	base := encodeRun(t, Executor{Workers: 1}, s, RunOptions{})
	for _, w := range []int{2, 4, 7} {
		got := encodeRun(t, Executor{Workers: w}, s, RunOptions{})
		if !bytes.Equal(base, got) {
			t.Fatalf("report changed with Workers=%d", w)
		}
	}
}

// TestGoldenReport pins the full report bytes — identity, seeds, aggregates,
// and the flat CSV rendering of them — against committed fixtures.
// Regenerate with -update after an intentional change to the simulation or
// the aggregation.
func TestGoldenReport(t *testing.T) {
	s := testSweep()
	records, err := (Executor{Workers: 4}).Run(s, RunOptions{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	rep, err := BuildReport(s, records)
	if err != nil {
		t.Fatalf("BuildReport: %v", err)
	}
	data, err := rep.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	checkGolden(t, "report_12cell.json", data)
	var csv bytes.Buffer
	if err := rep.WriteCSV(&csv); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	checkGolden(t, "report_12cell.csv", csv.Bytes())
}

// checkGolden compares got with testdata/name, rewriting the fixture first
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading fixture (run with -update to create it): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("report drifted from the golden fixture %s (re-run with -update if intentional)", path)
	}
}

// TestResumeAfterInterrupt interrupts a run via Stop after the first cell
// checkpoints, then resumes from the manifest and checks the final report is
// byte-identical to an uninterrupted run — and that resumed cells were not
// re-executed.
func TestResumeAfterInterrupt(t *testing.T) {
	s := testSweep()
	clean := encodeRun(t, Executor{Workers: 2}, s, RunOptions{})

	manifest := filepath.Join(t.TempDir(), "manifest.jsonl")
	stop := make(chan struct{})
	var once sync.Once
	first := Executor{
		Workers: 2,
		OnCell: func(Cell, []scenario.Result) {
			once.Do(func() { close(stop) })
		},
	}
	records, err := first.Run(s, RunOptions{ManifestPath: manifest, Stop: stop})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted run returned %v, want ErrInterrupted", err)
	}
	if len(records) == 0 || len(records) >= s.NumCells() {
		t.Fatalf("interrupted run checkpointed %d of %d cells; want a strict subset with progress", len(records), s.NumCells())
	}

	reran := 0
	second := Executor{
		Workers: 2,
		OnCell:  func(Cell, []scenario.Result) { reran++ },
	}
	resumed, err := second.Run(s, RunOptions{ManifestPath: manifest})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if reran != s.NumCells()-len(records) {
		t.Fatalf("resume re-executed %d cells, want %d (checkpointed cells must not re-run)", reran, s.NumCells()-len(records))
	}
	rep, err := BuildReport(s, resumed)
	if err != nil {
		t.Fatalf("BuildReport: %v", err)
	}
	data, err := rep.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(clean, data) {
		t.Fatal("resumed report differs from the uninterrupted run")
	}
}

// TestResumeRejectsChangedConfig pins the guard against resuming a manifest
// whose sweep config was edited: seeds no longer match, and the run must fail
// loudly instead of mixing incompatible results.
func TestResumeRejectsChangedConfig(t *testing.T) {
	s := testSweep()
	manifest := filepath.Join(t.TempDir(), "manifest.jsonl")
	if _, err := (Executor{Workers: 2}).Run(s, RunOptions{ManifestPath: manifest}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	changed := s
	changed.Seed = 999
	_, err := (Executor{Workers: 2}).Run(changed, RunOptions{ManifestPath: manifest})
	if err == nil || !strings.Contains(err.Error(), "config changed") {
		t.Fatalf("resume with a changed seed returned %v, want a config-changed error", err)
	}
}

// TestResumeRejectsMovedCell is the resume scan's index check: a manifest
// record whose ID and seed match a cell but whose index does not is a
// changed config too.
func TestResumeRejectsMovedCell(t *testing.T) {
	s := testSweep()
	records, err := (Executor{Workers: 2}).Run(s, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	moved := records[5]
	moved.Index = 6
	manifest := filepath.Join(t.TempDir(), "manifest.jsonl")
	var buf bytes.Buffer
	if err := AppendRecord(&buf, moved); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manifest, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = (Executor{Workers: 2}).Run(s, RunOptions{ManifestPath: manifest})
	want := fmt.Sprintf("campaign: manifest cell %q (index 6, seed %d) does not match the sweep (index 5, seed %d); the config changed since the checkpoint",
		moved.ID, moved.Seed, moved.Seed)
	if err == nil || err.Error() != want {
		t.Fatalf("resume with a moved cell returned %v, want %q", err, want)
	}
}

func TestManifestTruncatedFinalLine(t *testing.T) {
	s := testSweep()
	dir := t.TempDir()
	path := filepath.Join(dir, "manifest.jsonl")
	recs, err := (Executor{Workers: 2}).Run(s, RunOptions{ManifestPath: path})
	if err != nil {
		t.Fatal(err)
	}

	// A truncated FINAL line (crash mid-write) is dropped silently.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	truncated := append(append([]byte{}, data...), []byte(`{"version":1,"campaign":"unit","index":`)...)
	truncPath := filepath.Join(dir, "truncated.jsonl")
	if err := os.WriteFile(truncPath, truncated, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(truncPath)
	if err != nil {
		t.Fatalf("truncated final line should be tolerated: %v", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("got %d records from the truncated manifest, want %d", len(got), len(recs))
	}

	// The same garbage ANYWHERE ELSE is corruption and must error.
	lines := bytes.SplitAfter(data, []byte("\n"))
	corrupt := append([]byte(`{"version":1,"broken`+"\n"), bytes.Join(lines, nil)...)
	corruptPath := filepath.Join(dir, "corrupt.jsonl")
	if err := os.WriteFile(corruptPath, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(corruptPath); err == nil {
		t.Fatal("mid-file corruption was silently accepted")
	}
}

// TestBuildReportIncomplete pins the completeness check: a partial record set
// must fail with a missing-cells error, never emit a silently short report.
func TestBuildReportIncomplete(t *testing.T) {
	s := testSweep()
	records, err := (Executor{Workers: 2}).Run(s, RunOptions{Shard: 0, NumShards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildReport(s, records); err == nil || !strings.Contains(err.Error(), "incomplete") {
		t.Fatalf("BuildReport on one shard returned %v, want an incomplete-report error", err)
	}
}

// TestBuildReportRejectsMismatchedRecords pins BuildReport's identity check:
// a record whose ID, seed or index disagrees with the sweep's cell at that
// index fails the build with the does-not-match error, naming the record's
// identity and the sweep's.
func TestBuildReportRejectsMismatchedRecords(t *testing.T) {
	s := testSweep()
	records, err := (Executor{Workers: 2}).Run(s, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cell3, cell4 := records[3], records[4]
	cases := []struct {
		name   string
		mutate func([]CellRecord) []CellRecord
		want   string
	}{
		{"id", func(recs []CellRecord) []CellRecord {
			recs[3].ID = "family=flowchurn/scheme=vegas"
			return recs
		}, fmt.Sprintf("campaign: record for index 3 (%q, seed %d) does not match the sweep (%q, seed %d)",
			"family=flowchurn/scheme=vegas", cell3.Seed, cell3.ID, cell3.Seed)},
		{"seed", func(recs []CellRecord) []CellRecord {
			recs[3].Seed++
			return recs
		}, fmt.Sprintf("campaign: record for index 3 (%q, seed %d) does not match the sweep (%q, seed %d)",
			cell3.ID, cell3.Seed+1, cell3.ID, cell3.Seed)},
		{"index", func(recs []CellRecord) []CellRecord {
			// Cell 3's record stands in for cell 4's.
			recs[3].Index = 4
			return append(recs[:4], recs[5:]...)
		}, fmt.Sprintf("campaign: record for index 4 (%q, seed %d) does not match the sweep (%q, seed %d)",
			cell3.ID, cell3.Seed, cell4.ID, cell4.Seed)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			recs := tc.mutate(append([]CellRecord(nil), records...))
			_, err := BuildReport(s, recs)
			if err == nil || err.Error() != tc.want {
				t.Fatalf("BuildReport = %v, want %q", err, tc.want)
			}
		})
	}
}

// TestReportCSV sanity-checks the flat CSV rendering: header plus one row per
// cell, parseable floats.
func TestReportCSV(t *testing.T) {
	s := testSweep()
	records, err := (Executor{Workers: 4}).Run(s, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := BuildReport(s, records)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if got, want := len(lines), 1+s.NumCells(); got != want {
		t.Fatalf("CSV has %d lines, want %d (header + cells)", got, want)
	}
	if !strings.HasPrefix(lines[0], "index,id,family,scheme") {
		t.Fatalf("unexpected CSV header %q", lines[0])
	}
}

// TestReportCSVQuotesSpecName runs an explicit-spec cell whose name needs
// CSV quoting (a leading space, a comma, quotes and a newline) and holds its
// rows to encoding/csv: parsing the report back yields the name intact, and
// re-encoding the parsed records with csv.Writer reproduces the bytes.
func TestReportCSVQuotesSpecName(t *testing.T) {
	name := " odd, \"quoted\"\nname"
	s := SweepSpec{
		Name: "quoting",
		Specs: []scenario.Spec{scenario.New(
			scenario.WithName(name),
			scenario.WithLink(10e6),
			scenario.WithQueue(scenario.QueueDropTail, 100),
			scenario.WithFlows(1, "newreno", 100, scenario.ByBytesWorkload(scenario.ExponentialDist(100e3), scenario.ExponentialDist(0.5))),
			scenario.WithDuration(0.5),
		)},
		Seed: 3,
	}
	records, err := (Executor{Workers: 1}).Run(s, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := BuildReport(s, records)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	rows, err := csv.NewReader(bytes.NewReader(buf.Bytes())).ReadAll()
	if err != nil {
		t.Fatalf("reading the CSV back: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("CSV has %d records, want header + 1", len(rows))
	}
	if got, want := rows[1][1], "spec[0]="+name; got != want {
		t.Errorf("id column = %q, want %q", got, want)
	}
	if got := rows[1][4]; got != name {
		t.Errorf("spec_name column = %q, want %q", got, name)
	}
	var again bytes.Buffer
	w := csv.NewWriter(&again)
	if err := w.WriteAll(rows); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatalf("report CSV differs from encoding/csv:\n got %q\nwant %q", buf.Bytes(), again.Bytes())
	}
}

// TestExplicitSpecKeepsSeed: an explicit spec that sets its own Seed runs at
// exactly that seed — its cell's Seed, its materialized spec's and every
// repetition's base — resumes from its manifest and passes BuildReport,
// while an explicit spec with Seed 0 still derives its seed from the cell ID.
// Editing the kept seed makes the resume fail loudly.
func TestExplicitSpecKeepsSeed(t *testing.T) {
	spec := func(name string, seed int64) scenario.Spec {
		return scenario.New(
			scenario.WithName(name),
			scenario.WithLink(10e6),
			scenario.WithFlows(1, "newreno", 100, scenario.ByBytesWorkload(scenario.ExponentialDist(100e3), scenario.ExponentialDist(0.5))),
			scenario.WithDuration(0.5),
			scenario.WithSeed(seed),
		)
	}
	s := SweepSpec{Name: "own-seed", Specs: []scenario.Spec{spec("own", 42), spec("derived", 0)}, Seed: 3, Repetitions: 2}
	own, err := s.Cell(0)
	if err != nil {
		t.Fatal(err)
	}
	derived, err := s.Cell(1)
	if err != nil {
		t.Fatal(err)
	}
	if own.Seed != 42 {
		t.Fatalf("explicit spec with seed 42 got cell seed %d", own.Seed)
	}
	if want := deriveCellSeed(3, derived.ID); derived.Seed != want {
		t.Fatalf("explicit spec with seed 0 got cell seed %d, want the derived %d", derived.Seed, want)
	}
	if got, err := own.Spec(); err != nil || got.Seed != 42 {
		t.Fatalf("materialized spec seed %d (%v), want 42", got.Seed, err)
	}

	manifest := filepath.Join(t.TempDir(), "manifest.jsonl")
	var repSeeds []int64
	first := Executor{Workers: 1, OnCell: func(c Cell, results []scenario.Result) {
		if c.Index == 0 {
			for _, r := range results {
				repSeeds = append(repSeeds, r.Seed)
			}
		}
	}}
	if _, err := first.Run(s, RunOptions{ManifestPath: manifest}); err != nil {
		t.Fatal(err)
	}
	if want := []int64{scenario.DeriveSeed(42, 0), scenario.DeriveSeed(42, 1)}; !reflect.DeepEqual(repSeeds, want) {
		t.Fatalf("repetition seeds %v, want %v", repSeeds, want)
	}

	reran := 0
	resumed, err := (Executor{Workers: 1, OnCell: func(Cell, []scenario.Result) { reran++ }}).Run(s, RunOptions{ManifestPath: manifest})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if reran != 0 {
		t.Fatalf("resume re-ran %d checkpointed cells", reran)
	}
	rep, err := BuildReport(s, resumed)
	if err != nil {
		t.Fatalf("BuildReport: %v", err)
	}
	if rep.Cells[0].Seed != 42 || rep.Cells[1].Seed != derived.Seed {
		t.Fatalf("report seeds %d, %d; want 42, %d", rep.Cells[0].Seed, rep.Cells[1].Seed, derived.Seed)
	}

	changed := s
	changed.Specs = []scenario.Spec{spec("own", 43), spec("derived", 0)}
	_, err = (Executor{Workers: 1}).Run(changed, RunOptions{ManifestPath: manifest})
	if err == nil || !strings.Contains(err.Error(), "config changed") {
		t.Fatalf("resume after editing the spec's seed returned %v, want a config-changed error", err)
	}
}
