package stats

import (
	"io"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// This file is the one CSV encoder report writers share (the campaign
// report). Floats are formatted with strconv — shortest decimal that
// round-trips, always a '.' decimal separator — never with locale-sensitive
// printf-style formatting, so a report generated under any LC_NUMERIC parses
// back to the identical float64. Fields are quoted exactly as
// encoding/csv.Writer quotes them (RFC 4180, ',' separator, '\n' line ends).

// CSVFloat renders v as the shortest decimal string that parses back to
// exactly v. Non-finite values render as "NaN", "+Inf" or "-Inf", which
// strconv.ParseFloat accepts back.
func CSVFloat(v float64) string {
	var b [32]byte
	return string(appendCSVFloat(b[:0], v))
}

func appendCSVFloat(dst []byte, v float64) []byte {
	return strconv.AppendFloat(dst, v, 'g', -1, 64)
}

// csvFlushAt is the buffered size past which a finished row is written out.
const csvFlushAt = 4096

// CSVWriter writes CSV rows field by field, appending each typed field
// straight into one buffer: no field is boxed or becomes a string of its
// own. Append a row's fields with String, Int and Float, in column order,
// end it with EndRow, and call Flush (and check its error) after the last
// row. A write error is sticky: every later EndRow and Flush returns it.
type CSVWriter struct {
	w io.Writer
	// buf holds finished rows not yet written, then the row being built.
	buf []byte
	// inRow reports whether the current row has a field yet.
	inRow bool
	err   error
}

// NewCSVWriter returns a writer emitting to w.
func NewCSVWriter(w io.Writer) *CSVWriter {
	return &CSVWriter{w: w, buf: make([]byte, 0, 2*csvFlushAt)}
}

// sep appends the separator a field needs before it.
func (c *CSVWriter) sep() {
	if c.inRow {
		c.buf = append(c.buf, ',')
	}
	c.inRow = true
}

// String appends string fields, quoted where encoding/csv would quote them.
func (c *CSVWriter) String(fields ...string) {
	for _, f := range fields {
		c.sep()
		c.buf = appendCSVField(c.buf, f)
	}
}

// Int appends integer fields in decimal.
func (c *CSVWriter) Int(fields ...int64) {
	for _, v := range fields {
		c.sep()
		c.buf = strconv.AppendInt(c.buf, v, 10)
	}
}

// Float appends float fields as CSVFloat renders them. That text never needs
// quoting.
func (c *CSVWriter) Float(fields ...float64) {
	for _, v := range fields {
		c.sep()
		c.buf = appendCSVFloat(c.buf, v)
	}
}

// EndRow ends the current row, writing the buffered rows out once they pass
// csvFlushAt bytes.
func (c *CSVWriter) EndRow() error {
	c.buf = append(c.buf, '\n')
	c.inRow = false
	if len(c.buf) >= csvFlushAt {
		return c.Flush()
	}
	return c.err
}

// Flush writes the buffered rows to the underlying writer and reports any
// write error encountered along the way.
func (c *CSVWriter) Flush() error {
	if c.err == nil && len(c.buf) > 0 {
		_, c.err = c.w.Write(c.buf)
	}
	c.buf = c.buf[:0]
	return c.err
}

// appendCSVField appends f as encoding/csv.Writer writes it: verbatim, or
// inside quotes with every '"' doubled when csvNeedsQuotes says so.
func appendCSVField(dst []byte, f string) []byte {
	if !csvNeedsQuotes(f) {
		return append(dst, f...)
	}
	dst = append(dst, '"')
	for {
		i := strings.IndexByte(f, '"')
		if i < 0 {
			break
		}
		dst = append(dst, f[:i+1]...)
		dst = append(dst, '"')
		f = f[i+1:]
	}
	dst = append(dst, f...)
	return append(dst, '"')
}

// csvNeedsQuotes is encoding/csv's rule for a ',' separator: a field is
// quoted when it holds a separator, a quote, CR or LF, when it begins with a
// Unicode space, or when it is exactly `\.` (which would otherwise end a
// PostgreSQL COPY stream). The empty field is never quoted.
func csvNeedsQuotes(f string) bool {
	if f == "" {
		return false
	}
	if f == `\.` {
		return true
	}
	for i := 0; i < len(f); i++ {
		switch f[i] {
		case ',', '"', '\r', '\n':
			return true
		}
	}
	r, _ := utf8.DecodeRuneInString(f)
	return unicode.IsSpace(r)
}
