package stats

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// This file is the one CSV encoder report writers share (the campaign
// report). Floats are formatted with strconv — shortest decimal that
// round-trips, always a '.' decimal separator — never with locale-sensitive
// printf-style formatting, so a report generated under any LC_NUMERIC parses
// back to the identical float64. Quoting follows RFC 4180 via encoding/csv.

// CSVFloat renders v as the shortest decimal string that parses back to
// exactly v. Non-finite values render as "NaN", "+Inf" or "-Inf", which
// strconv.ParseFloat accepts back.
func CSVFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// CSVWriter writes CSV rows from mixed-type fields, formatting numbers
// deterministically. It buffers through encoding/csv; call Flush (and check
// its error) after the last row.
type CSVWriter struct {
	w *csv.Writer
	// scratch is reused across rows to keep row encoding allocation-light.
	scratch []string
}

// NewCSVWriter returns a writer emitting to w.
func NewCSVWriter(w io.Writer) *CSVWriter {
	return &CSVWriter{w: csv.NewWriter(w)}
}

// Row writes one record. Fields may be string, float64, any integer type, or
// bool; anything else is rejected so a bad column shows up as an error
// instead of a fmt.Sprintf guess in the artifact.
func (c *CSVWriter) Row(fields ...any) error {
	row := c.scratch[:0]
	for i, f := range fields {
		switch v := f.(type) {
		case string:
			row = append(row, v)
		case float64:
			row = append(row, CSVFloat(v))
		case float32:
			row = append(row, strconv.FormatFloat(float64(v), 'g', -1, 32))
		case int:
			row = append(row, strconv.Itoa(v))
		case int64:
			row = append(row, strconv.FormatInt(v, 10))
		case uint64:
			row = append(row, strconv.FormatUint(v, 10))
		case bool:
			row = append(row, strconv.FormatBool(v))
		default:
			return fmt.Errorf("stats: csv field %d has unsupported type %T", i, f)
		}
	}
	c.scratch = row
	return c.w.Write(row)
}

// Flush drains the buffered rows to the underlying writer and reports any
// write error encountered along the way.
func (c *CSVWriter) Flush() error {
	c.w.Flush()
	return c.w.Error()
}
