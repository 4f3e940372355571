package stats

import (
	"bytes"
	"encoding/csv"
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"
)

// TestCSVFloatRoundTrip: every formatted float must parse back to exactly
// the value it came from — the locale-safety contract report artifacts rely
// on.
func TestCSVFloatRoundTrip(t *testing.T) {
	values := []float64{
		0, 1, -1, 0.5, 1.0 / 3.0, 3.141592653589793, 1e-300, 1e300,
		6.25e6, 123456.789, -0.000123, math.MaxFloat64, math.SmallestNonzeroFloat64,
		math.Inf(1), math.Inf(-1),
	}
	for _, v := range values {
		s := CSVFloat(v)
		if strings.ContainsRune(s, ',') {
			t.Errorf("CSVFloat(%g) = %q contains a comma", v, s)
		}
		back, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Errorf("CSVFloat(%g) = %q does not parse: %v", v, s, err)
			continue
		}
		if back != v {
			t.Errorf("CSVFloat(%g) = %q parses back to %g", v, s, back)
		}
	}
	if s := CSVFloat(math.NaN()); !math.IsNaN(mustParse(t, s)) {
		t.Errorf("CSVFloat(NaN) = %q does not round-trip to NaN", s)
	}
}

func mustParse(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

// TestCSVWriterRoundTrip writes typed rows, reads them back through the
// standard CSV reader, and checks every cell survives — including quoted
// strings with embedded commas and newlines — and that enough rows to pass
// the flush threshold come out exactly as encoding/csv writes them.
func TestCSVWriterRoundTrip(t *testing.T) {
	var b, ref bytes.Buffer
	w := NewCSVWriter(&b)
	rw := csv.NewWriter(&ref)
	w.String("cell_id", "scheme", "tput_mbps", "flows")
	if err := w.EndRow(); err != nil {
		t.Fatal(err)
	}
	if err := rw.Write([]string{"cell_id", "scheme", "tput_mbps", "flows"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		id := "scheme=cubic/load=0.5"
		if i%2 == 1 {
			id = "weird,\"name\"\nhere"
		}
		tput := float64(i) / 3
		w.String(id, "vegas")
		w.Float(tput)
		w.Int(int64(i) * 12345)
		if err := w.EndRow(); err != nil {
			t.Fatal(err)
		}
		if err := rw.Write([]string{id, "vegas", CSVFloat(tput), strconv.FormatInt(int64(i)*12345, 10)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	rw.Flush()
	if !bytes.Equal(b.Bytes(), ref.Bytes()) {
		t.Fatal("CSVWriter output differs from encoding/csv")
	}
	got, err := csv.NewReader(bytes.NewReader(b.Bytes())).ReadAll()
	if err != nil {
		t.Fatalf("reading back: %v", err)
	}
	if len(got) != 201 {
		t.Fatalf("read %d rows, want 201", len(got))
	}
	if got[1][0] != "scheme=cubic/load=0.5" || got[2][0] != "weird,\"name\"\nhere" {
		t.Errorf("string cells mangled: %q, %q", got[1][0], got[2][0])
	}
	if v := mustParse(t, got[2][2]); v != 1.0/3.0 {
		t.Errorf("float cell parses to %g, want exactly 1/3", v)
	}
	if got[2][3] != "12345" {
		t.Errorf("int cell mangled: %q", got[2][3])
	}
}

// errWriter fails every write.
type errWriter struct{}

func (errWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestCSVWriterStickyError pins that a failed write surfaces from Flush and
// from every later EndRow and Flush.
func TestCSVWriterStickyError(t *testing.T) {
	w := NewCSVWriter(errWriter{})
	w.String("a")
	if err := w.EndRow(); err != nil {
		t.Fatalf("EndRow before any write = %v, want nil", err)
	}
	if err := w.Flush(); err == nil {
		t.Fatal("Flush swallowed the write error")
	}
	w.Int(1)
	if err := w.EndRow(); err == nil {
		t.Fatal("EndRow after a failed write returned nil")
	}
	if err := w.Flush(); err == nil {
		t.Fatal("second Flush returned nil")
	}
}

// FuzzCSVRow holds CSVWriter byte-for-byte to encoding/csv.Writer: rows of
// arbitrary strings, floats and integers, and a row of one lone string, must
// encode exactly as csv.Writer encodes the same fields as text (CSVFloat and
// strconv.FormatInt).
//
// Run with: go test ./internal/stats -fuzz FuzzCSVRow
func FuzzCSVRow(f *testing.F) {
	strs := []string{
		"", "plain", "a,b", `say "hi"`, "cr\rhere", "lf\nhere", "crlf\r\n", " lead", "\tlead",
		`\.`, `\.x`, "\xff\xfe", "\xa0nbsp-byte", "\u00a0nbsp", "\u3000ideographic", "trail ", "\"",
	}
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1.5, 1.0 / 3, math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, 2.2250738585072009e-308, math.MaxFloat64, 1e21, 1e-7,
	}
	for i, s := range strs {
		f.Add(s, strs[(i+1)%len(strs)], floats[i%len(floats)], int64(i-8)*1e17)
	}
	f.Fuzz(func(t *testing.T, a, b string, x float64, n int64) {
		var got, want bytes.Buffer
		w := NewCSVWriter(&got)
		rw := csv.NewWriter(&want)
		for rep := 0; rep < 3; rep++ {
			w.String(a)
			w.Float(x)
			w.Int(n)
			w.String(b, a)
			if err := w.EndRow(); err != nil {
				t.Fatal(err)
			}
			w.String(b)
			if err := w.EndRow(); err != nil {
				t.Fatal(err)
			}
			if err := rw.Write([]string{a, CSVFloat(x), strconv.FormatInt(n, 10), b, a}); err != nil {
				t.Fatal(err)
			}
			if err := rw.Write([]string{b}); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		rw.Flush()
		if err := rw.Error(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("CSVWriter differs from encoding/csv\n got %q\nwant %q", got.Bytes(), want.Bytes())
		}
	})
}
