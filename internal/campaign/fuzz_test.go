package campaign

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzSweepSpecRoundTrip mirrors scenario.FuzzSpecRoundTrip at the campaign
// layer: any JSON that decodes into a valid SweepSpec must re-encode to a
// stable fixed point — decode(encode(decode(x))) produces the same bytes as
// encode(decode(x)) — and re-encoding must never turn a valid sweep into an
// invalid or undecodable one. Cell enumeration must also be stable across the
// round trip, since cell IDs anchor seeds, manifests and resume, and a run's
// shared identity must render each cell exactly as SweepSpec.Cell does. The
// corpus is seeded from the checked-in example campaigns.
//
// Run with: go test ./internal/campaign -fuzz FuzzSweepSpecRoundTrip
func FuzzSweepSpecRoundTrip(f *testing.F) {
	seeds, _ := filepath.Glob(filepath.Join("..", "..", "examples", "campaigns", "*.json"))
	seeds2, _ := filepath.Glob(filepath.Join("testdata", "*.json"))
	for _, path := range append(seeds, seeds2...) {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatalf("reading seed %s: %v", path, err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"name":"mini","family":"flowchurn","scheme":"cubic",` +
		`"axes":[{"name":"offered_load","values":[0.25,0.5]},{"name":"rtt_ms","values":[50]}],` +
		`"duration_seconds":2,"repetitions":3,"seed":7}`))
	f.Add([]byte(`{"name":"families","axes":[{"name":"family","strings":["parkinglot","crosstraffic"]},` +
		`{"name":"scheme","strings":["newreno","vegas"]}],"duration_seconds":1}`))
	f.Add([]byte(`{"name":"explicit","specs":[{"name":"one","link":{"rate_bps":1e6},` +
		`"flows":[{"scheme":"newreno","rtt_ms":10,"workload":{"mode":"time",` +
		`"on":{"type":"constant","value":1},"off":{"type":"constant","value":1}}}],"duration_seconds":1}]}`))
	f.Add([]byte(`{"name":""}`))
	f.Add([]byte(`not json`))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Unmarshal(data)
		if err != nil {
			return // undecodable input is out of scope
		}
		if s.Validate() != nil {
			return // invalid sweeps need not round-trip
		}
		b1, err := s.Marshal()
		if err != nil {
			t.Fatalf("valid sweep failed to encode: %v", err)
		}
		s2, err := Unmarshal(b1)
		if err != nil {
			t.Fatalf("re-decoding our own encoding failed: %v\nencoded: %s", err, b1)
		}
		if err := s2.Validate(); err != nil {
			t.Fatalf("sweep became invalid after a round trip: %v\nencoded: %s", err, b1)
		}
		b2, err := s2.Marshal()
		if err != nil {
			t.Fatalf("second encode failed: %v", err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("encoding is not a fixed point\nfirst:  %s\nsecond: %s", b1, b2)
		}
		// Cell identity must survive the round trip: same count, IDs and
		// seeds, or a resumed manifest would mismatch its own sweep file.
		if s.NumCells() != s2.NumCells() {
			t.Fatalf("cell count changed across the round trip: %d -> %d", s.NumCells(), s2.NumCells())
		}
		// A run's shared identity renders every cell as a lone lookup does.
		x := newIdentity(&s)
		for i := 0; i < s.NumCells(); i++ {
			c1, err1 := s.Cell(i)
			c2, err2 := s2.Cell(i)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("cell %d enumeration agreement broke: %v vs %v", i, err1, err2)
			}
			if err1 == nil && (c1.ID != c2.ID || c1.Seed != c2.Seed || c1.Scheme != c2.Scheme) {
				t.Fatalf("cell %d identity changed across the round trip: %+v vs %+v", i, c1, c2)
			}
			if cx, err := x.cell(i, make([]Coord, len(s.Axes))); err != nil || !reflect.DeepEqual(cx, c1) {
				t.Fatalf("cell %d from the shared identity = %+v, %v; want %+v", i, cx, err, c1)
			}
		}
	})
}

// FuzzManifestTail fuzzes crash debris appended to a valid checkpoint
// manifest: whatever bytes a dying process left behind, ReadManifest must
// never panic, and on success the original records must survive as a prefix
// (resume must not lose or reorder completed cells). This generalizes
// TestManifestTruncatedFinalLine from one truncation to arbitrary tails.
//
// Run with: go test ./internal/campaign -fuzz FuzzManifestTail
func FuzzManifestTail(f *testing.F) {
	s := SweepSpec{
		Name:   "fuzz-manifest",
		Family: "flowchurn", Scheme: "newreno",
		Axes:            []Axis{{Name: AxisOfferedLoad, Values: []float64{0.25, 0.5}}},
		DurationSeconds: 0.5,
		Seed:            11,
	}
	base, err := (Executor{Workers: 2}).Run(s, RunOptions{})
	if err != nil {
		f.Fatalf("base run: %v", err)
	}
	var buf bytes.Buffer
	for _, rec := range base {
		if err := AppendRecord(&buf, rec); err != nil {
			f.Fatal(err)
		}
	}
	valid := buf.Bytes()

	f.Add([]byte(`{"version":1,"campaign":"fuzz-manifest","index":`)) // mid-write truncation
	f.Add([]byte("\n\n"))
	f.Add([]byte(`{"version":99}`)) // version skew in the tail
	f.Add([]byte{0xff, 0xfe, 0x00})
	f.Add([]byte("{}\ngarbage"))

	f.Fuzz(func(t *testing.T, tail []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "manifest.jsonl")
		if err := os.WriteFile(path, append(append([]byte{}, valid...), tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		recs, err := ReadManifest(path)
		if err != nil {
			return // rejecting a corrupt manifest loudly is correct
		}
		if len(recs) < len(base) {
			t.Fatalf("tail bytes ate completed cells: %d records, want >= %d", len(recs), len(base))
		}
		for i, want := range base {
			if !reflect.DeepEqual(recs[i], want) {
				t.Fatalf("record %d changed under a tail-corrupted manifest", i)
			}
		}
	})
}
