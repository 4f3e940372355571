package campaign

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// ManifestVersion stamps every manifest line so future readers can evolve
// the record shape without guessing.
const ManifestVersion = 1

// CellRecord is one completed cell: identity, provenance and the folded
// aggregate. It is both the manifest checkpoint line (JSONL) and the report
// row, so resume, shard merge and report generation all speak one format.
type CellRecord struct {
	Version  int     `json:"version"`
	Campaign string  `json:"campaign"`
	Index    int     `json:"index"`
	ID       string  `json:"id"`
	Family   string  `json:"family,omitempty"`
	Scheme   string  `json:"scheme,omitempty"`
	Coords   []Coord `json:"coords,omitempty"`
	// Seed is the cell's derived base seed; re-running the cell's spec
	// standalone with this seed reproduces Aggregate exactly.
	Seed      int64         `json:"seed"`
	SpecName  string        `json:"spec_name"`
	Aggregate CellAggregate `json:"aggregate"`
	// Failure, when non-empty, marks a quarantined cell: every attempt
	// failed (panic, error, or watchdog timeout) and Aggregate is zero. The
	// record still checkpoints like any other, so a resumed run skips the
	// known-bad cell instead of dying on it again.
	Failure string `json:"failure,omitempty"`
	// Attempts is how many times the cell was tried (successes record it too
	// when a retry was needed; omitted when the first attempt succeeded).
	Attempts int `json:"attempts,omitempty"`
}

// recordFor assembles the manifest record for a completed cell.
func recordFor(sweepName string, cell Cell, specName string, agg CellAggregate) CellRecord {
	return CellRecord{
		Version:   ManifestVersion,
		Campaign:  sweepName,
		Index:     cell.Index,
		ID:        cell.ID,
		Family:    cell.Family,
		Scheme:    cell.Scheme,
		Coords:    cell.Coords,
		Seed:      cell.Seed,
		SpecName:  specName,
		Aggregate: agg,
	}
}

// failedRecordFor assembles the quarantine record for a cell whose every
// attempt failed.
func failedRecordFor(sweepName string, cell Cell, specName string, cause error, attempts int) CellRecord {
	rec := recordFor(sweepName, cell, specName, CellAggregate{})
	rec.Failure = cause.Error()
	rec.Attempts = attempts
	return rec
}

// AppendRecord writes one manifest line (compact JSON + newline).
func AppendRecord(w io.Writer, rec CellRecord) error {
	return appendRecord(json.NewEncoder(w), &rec)
}

// appendRecord writes rec as one manifest line through enc, an Encoder over
// the manifest, which encodes into a buffer of its own and writes the line
// in one Write. A run keeps one Encoder for all its records.
func appendRecord(enc *json.Encoder, rec *CellRecord) error {
	if err := enc.Encode(rec); err != nil {
		return fmt.Errorf("campaign: writing manifest record %q: %w", rec.ID, err)
	}
	return nil
}

// ReadManifest loads a checkpoint manifest. A truncated final line — the
// signature of a run killed mid-write — is tolerated and dropped, so a crash
// never poisons the resume; corruption anywhere else is an error.
func ReadManifest(path string) ([]CellRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	defer f.Close()
	var out []CellRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	lineNo := 0
	var pendingErr error
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if pendingErr != nil {
			// The malformed line was NOT the last one: real corruption.
			return nil, pendingErr
		}
		var rec CellRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			pendingErr = fmt.Errorf("campaign: %s line %d: %w", path, lineNo, err)
			continue
		}
		if rec.Version != ManifestVersion {
			return nil, fmt.Errorf("campaign: %s line %d: manifest version %d, want %d", path, lineNo, rec.Version, ManifestVersion)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("campaign: reading %s: %w", path, err)
	}
	return out, nil
}

// ReadManifests loads and concatenates several manifests (the merge-shards
// input).
func ReadManifests(paths []string) ([]CellRecord, error) {
	var out []CellRecord
	for _, p := range paths {
		recs, err := ReadManifest(p)
		if err != nil {
			return nil, err
		}
		out = append(out, recs...)
	}
	return out, nil
}
