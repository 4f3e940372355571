package campaign

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/stats"
)

// ReportVersion stamps the consolidated report format.
const ReportVersion = 1

// Totals roll the whole campaign up to one line.
type Totals struct {
	Cells          int   `json:"cells"`
	Reps           int   `json:"reps"`
	FlowSamples    int64 `json:"flow_samples"`
	FlowsSpawned   int64 `json:"flows_spawned"`
	FlowsCompleted int64 `json:"flows_completed"`
	FlowsRejected  int64 `json:"flows_rejected"`
	// FailedCells counts quarantined cells (omitted when the campaign was
	// clean, keeping pre-fault report bytes identical).
	FailedCells int `json:"failed_cells,omitempty"`
}

// FailedCell names one quarantined cell in the report: identity plus the
// final failure and how many attempts it got.
type FailedCell struct {
	Index    int    `json:"index"`
	ID       string `json:"id"`
	Failure  string `json:"failure"`
	Attempts int    `json:"attempts,omitempty"`
}

// Report is the consolidated campaign artifact: one record per cell in
// canonical index order plus campaign totals. Encoding is deterministic —
// the same set of cell records produces the same bytes whether they came
// from one process or the union of shard manifests. A campaign with
// quarantined cells still reports: the good cells appear in Cells as usual
// and the bad ones are named in FailedCells instead of erroring the build.
type Report struct {
	Version     int          `json:"version"`
	Campaign    string       `json:"campaign"`
	Description string       `json:"description,omitempty"`
	Totals      Totals       `json:"totals"`
	Cells       []CellRecord `json:"cells"`
	FailedCells []FailedCell `json:"failed_cells,omitempty"`
}

// BuildReport assembles the consolidated report from a complete record set
// (one process's run, or several shards' manifests concatenated). Records
// are verified for campaign identity, deduplicated when byte-equal in
// identity (a resumed shard may re-report cells), checked for conflicts, and
// required to cover every cell exactly once. Quarantine records count as
// coverage: the report degrades gracefully with a failed_cells section
// rather than erroring, so one bad cell never costs the rest of the
// campaign's numbers. Cells with no record at all (an unfinished shard)
// still fail the build.
func BuildReport(sweep SweepSpec, records []CellRecord) (Report, error) {
	if err := sweep.Validate(); err != nil {
		return Report{}, err
	}
	// byIndex maps a cell index to its record's position in records.
	byIndex := make(map[int]int, len(records))
	for j, rec := range records {
		if rec.Campaign != sweep.Name {
			return Report{}, fmt.Errorf("campaign: record %q belongs to campaign %q, not %q", rec.ID, rec.Campaign, sweep.Name)
		}
		if k, ok := byIndex[rec.Index]; ok {
			prev := &records[k]
			if prev.ID != rec.ID || prev.Seed != rec.Seed {
				return Report{}, fmt.Errorf("campaign: conflicting records for cell index %d (%q vs %q)", rec.Index, prev.ID, rec.ID)
			}
			// A successful record supersedes a quarantine record for the same
			// cell (a later run may have gotten past a transient failure).
			if prev.Failure == "" || rec.Failure != "" {
				continue
			}
		}
		byIndex[rec.Index] = j
	}
	// Walk the cells in index order, so cells and failed come out sorted.
	// Each cell's ID is rendered into one reused buffer and compared as
	// bytes with its record's.
	x := newIdentity(&sweep)
	coords := make([]Coord, len(sweep.Axes))
	var id []byte
	n := sweep.NumCells()
	cells := make([]CellRecord, 0, n)
	var failed []FailedCell
	var missing []string
	for i := 0; i < n; i++ {
		id = x.render(id[:0], coords, i)
		j, ok := byIndex[i]
		if !ok {
			missing = append(missing, string(id))
			continue
		}
		rec := records[j]
		if seed := x.seed(id, i); string(id) != rec.ID || seed != rec.Seed {
			return Report{}, fmt.Errorf("campaign: record for index %d (%q, seed %d) does not match the sweep (%q, seed %d)",
				i, rec.ID, rec.Seed, id, seed)
		}
		if rec.Failure != "" {
			failed = append(failed, FailedCell{Index: rec.Index, ID: rec.ID, Failure: rec.Failure, Attempts: rec.Attempts})
			continue
		}
		cells = append(cells, rec)
	}
	if len(missing) > 0 {
		if len(missing) > 8 {
			missing = append(missing[:8], fmt.Sprintf("... and %d more", len(missing)-8))
		}
		return Report{}, fmt.Errorf("campaign: report incomplete: %d of %d cells missing (%v); run the remaining shards or resume", n-len(byIndex), n, missing)
	}
	rep := Report{
		Version:     ReportVersion,
		Campaign:    sweep.Name,
		Description: sweep.Description,
		Cells:       cells,
		FailedCells: failed,
	}
	for _, c := range cells {
		rep.Totals.Cells++
		rep.Totals.Reps += c.Aggregate.Reps
		rep.Totals.FlowSamples += c.Aggregate.FlowSamples
		rep.Totals.FlowsSpawned += c.Aggregate.FlowsSpawned
		rep.Totals.FlowsCompleted += c.Aggregate.FlowsCompleted
		rep.Totals.FlowsRejected += c.Aggregate.FlowsRejected
	}
	rep.Totals.FailedCells = len(failed)
	return rep, nil
}

// Encode renders the report as canonical bytes: indented JSON with a
// trailing newline. Shard-merge determinism is verified against exactly
// these bytes.
func (r Report) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// DecodeReport parses report bytes produced by Encode, checking the format
// version.
func DecodeReport(data []byte) (Report, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return Report{}, fmt.Errorf("campaign: decoding report: %w", err)
	}
	if r.Version != ReportVersion {
		return Report{}, fmt.Errorf("campaign: report version %d, want %d", r.Version, ReportVersion)
	}
	return r, nil
}

// csvHeader is the flat per-cell schema (one row per cell; the cell's scheme
// is a column, so a scheme-axis campaign reads as one row per cell × scheme).
var csvHeader = []string{
	"index", "id", "family", "scheme", "spec_name", "seed", "reps",
	"flow_samples", "tput_mean_mbps", "tput_p50_mbps", "delay_mean_ms", "delay_p50_ms",
	"utility_mean", "starved_flows",
	"flows_spawned", "flows_completed", "flows_rejected",
	"fct_mean_ms", "fct_p50_ms", "fct_p95_ms", "fct_p99_ms", "fct_min_ms", "fct_max_ms",
}

// WriteCSV renders the flat per-cell table with locale-safe float
// formatting (stats.CSVFloat round-trips every value exactly).
func (r Report) WriteCSV(w io.Writer) error {
	cw := stats.NewCSVWriter(w)
	cw.String(csvHeader...)
	if err := cw.EndRow(); err != nil {
		return err
	}
	for _, c := range r.Cells {
		a := c.Aggregate
		cw.Int(int64(c.Index))
		cw.String(c.ID, c.Family, c.Scheme, c.SpecName)
		cw.Int(c.Seed, int64(a.Reps), a.FlowSamples)
		cw.Float(a.ThroughputMbps.Mean, a.ThroughputMbps.P50, a.QueueDelayMs.Mean, a.QueueDelayMs.P50, a.UtilityMean)
		cw.Int(a.StarvedFlows, a.FlowsSpawned, a.FlowsCompleted, a.FlowsRejected)
		cw.Float(a.FCT.MeanMs, a.FCT.P50Ms, a.FCT.P95Ms, a.FCT.P99Ms, a.FCT.MinMs, a.FCT.MaxMs)
		if err := cw.EndRow(); err != nil {
			return err
		}
	}
	return cw.Flush()
}
