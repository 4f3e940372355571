// Package campaign is the fleet-scale orchestration layer over
// scenario.Runner: it turns a declarative sweep — a cartesian grid of named
// axes over the canonical scenario families, plus optional explicit specs —
// into thousands of scenario cells, executes them across an in-process
// worker pool and an optional process-level shard split, folds every
// cell's results into O(1) streaming aggregates (the stats P²/FCTAggregator
// machinery; per-flow samples are never retained), and emits one consolidated
// versioned report in JSON and CSV.
//
// Execution is deterministic end to end: each cell's seed derives from the
// campaign seed and the cell's stable coordinate-based ID (an explicit spec
// that sets its own seed keeps it), so any cell is reproducible standalone,
// the same report comes out whatever the worker count, and the union of
// shard runs is byte-identical to a single-process run. Completed cells are
// checkpointed to a JSONL manifest as they finish, so an interrupted campaign
// resumes where it stopped.
package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"

	"repro/internal/scenario"
)

// Axis names a sweep dimension. String axes ("scheme", "family") enumerate
// names; numeric axes enumerate float values. The set of legal names is
// closed so a typo'd axis fails validation instead of silently spanning an
// empty dimension.
const (
	AxisScheme        = "scheme"         // registered protocol names
	AxisFamily        = "family"         // scenario family names (see scenario.Families)
	AxisOfferedLoad   = "offered_load"   // flow-churn offered load (fraction of bottleneck at the median flow size)
	AxisRTTMs         = "rtt_ms"         // responsive flows' two-way propagation delay
	AxisRateScale     = "rate_scale"     // multiplier on every link's canonical rate
	AxisBufferPackets = "buffer_packets" // spec-level queue capacity (integral values)
	AxisOutageS       = "outage_s"       // lossy-outage family: mid-run bottleneck outage length in seconds (0 = none)
	AxisBurstLoss     = "burst_loss"     // lossy-outage family: Gilbert–Elliott bad-state loss probability (0 = no loss process)
)

// stringAxes and numericAxes partition the legal axis names.
var stringAxes = map[string]bool{AxisScheme: true, AxisFamily: true}
var numericAxes = map[string]bool{
	AxisOfferedLoad: true, AxisRTTMs: true, AxisRateScale: true, AxisBufferPackets: true,
	AxisOutageS: true, AxisBurstLoss: true,
}

// Axis is one named sweep dimension: exactly one of Strings or Values is
// populated, matching the axis kind.
type Axis struct {
	Name    string    `json:"name"`
	Strings []string  `json:"strings,omitempty"`
	Values  []float64 `json:"values,omitempty"`
}

// Len returns the number of coordinates along the axis.
func (a Axis) Len() int {
	if len(a.Strings) > 0 {
		return len(a.Strings)
	}
	return len(a.Values)
}

// coord returns the canonical string form of the i-th coordinate. Floats use
// the shortest round-trip form, so IDs built from coordinates are stable and
// locale-independent.
func (a Axis) coord(i int) string {
	if len(a.Strings) > 0 {
		return a.Strings[i]
	}
	return strconv.FormatFloat(a.Values[i], 'g', -1, 64)
}

// validate checks one axis in isolation.
func (a Axis) validate() error {
	switch {
	case stringAxes[a.Name]:
		if len(a.Strings) == 0 {
			return fmt.Errorf("campaign: axis %q needs a non-empty strings list", a.Name)
		}
		if len(a.Values) > 0 {
			return fmt.Errorf("campaign: axis %q is a string axis; values are not allowed", a.Name)
		}
	case numericAxes[a.Name]:
		if len(a.Values) == 0 {
			return fmt.Errorf("campaign: axis %q needs a non-empty values list", a.Name)
		}
		if len(a.Strings) > 0 {
			return fmt.Errorf("campaign: axis %q is a numeric axis; strings are not allowed", a.Name)
		}
	default:
		return fmt.Errorf("campaign: unknown axis %q (known: scheme, family, offered_load, rtt_ms, rate_scale, buffer_packets, outage_s, burst_loss)", a.Name)
	}
	seen := make(map[string]bool, a.Len())
	for i := 0; i < a.Len(); i++ {
		c := a.coord(i)
		if c == "" {
			return fmt.Errorf("campaign: axis %q has an empty coordinate", a.Name)
		}
		if seen[c] {
			return fmt.Errorf("campaign: axis %q repeats coordinate %q; duplicate cells would collide", a.Name, c)
		}
		seen[c] = true
	}
	for _, v := range a.Values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("campaign: axis %q has a non-finite value", a.Name)
		}
		switch a.Name {
		case AxisOfferedLoad, AxisRTTMs, AxisRateScale:
			if v <= 0 {
				return fmt.Errorf("campaign: axis %q value %g must be positive", a.Name, v)
			}
		case AxisBufferPackets:
			if v < 1 || v != math.Trunc(v) {
				return fmt.Errorf("campaign: axis %q value %g must be a positive integer", a.Name, v)
			}
		case AxisOutageS:
			if v < 0 {
				return fmt.Errorf("campaign: axis %q value %g must be non-negative", a.Name, v)
			}
		case AxisBurstLoss:
			if v < 0 || v >= 1 {
				return fmt.Errorf("campaign: axis %q value %g must be in [0, 1)", a.Name, v)
			}
		}
	}
	return nil
}

// SweepSpec is a complete declarative campaign: a grid (family × axes) and/or
// an explicit spec list, plus the per-cell run budget. It round-trips through
// JSON, so campaigns are files, not binaries.
type SweepSpec struct {
	// Name labels the campaign in reports, manifests and logs.
	Name string `json:"name"`
	// Description documents the campaign for human readers; no effect on
	// execution.
	Description string `json:"description,omitempty"`
	// Family names the scenario family every grid cell instantiates
	// (scenario.Families lists the options). Mutually exclusive with a
	// "family" axis.
	Family string `json:"family,omitempty"`
	// Scheme is the protocol grid cells run when there is no "scheme" axis.
	Scheme string `json:"scheme,omitempty"`
	// RemyCC is the rule-table path for cells whose scheme is the file-driven
	// "remy".
	RemyCC string `json:"remycc,omitempty"`
	// Axes are the sweep dimensions; their cartesian product is the grid.
	// The first axis varies slowest (row-major cell order).
	Axes []Axis `json:"axes,omitempty"`
	// Specs appends explicit scenario cells after the grid (for cells no
	// family parameterization reaches). An explicit spec keeps its own Seed,
	// DurationSeconds and Repetitions when it sets them; a zero Seed derives
	// the cell's seed from the campaign seed and the cell ID, as for grid
	// cells.
	Specs []scenario.Spec `json:"specs,omitempty"`
	// DurationSeconds is each repetition's simulated length (grid cells, and
	// explicit specs that do not set their own).
	DurationSeconds float64 `json:"duration_seconds"`
	// Seed is the campaign base seed; per-cell seeds derive from it and the
	// cell ID (except explicit specs that set their own).
	Seed int64 `json:"seed,omitempty"`
	// Repetitions is the independent runs per cell (0 means 1; explicit
	// specs may override with their own count).
	Repetitions int `json:"repetitions,omitempty"`
	// Workload is the static (non-churn) flows' on/off process for grid
	// cells; nil means the repository's standard exponential 100 kB / 0.5 s
	// process.
	Workload *scenario.WorkloadSpec `json:"workload,omitempty"`
}

// Reps returns the effective grid repetition count (at least 1).
func (s SweepSpec) Reps() int {
	if s.Repetitions < 1 {
		return 1
	}
	return s.Repetitions
}

// axis returns the named axis, if present.
func (s SweepSpec) axis(name string) (Axis, bool) {
	for _, a := range s.Axes {
		if a.Name == name {
			return a, true
		}
	}
	return Axis{}, false
}

// gridCells returns the grid's cell count (the product of axis lengths; 1
// for an axis-less family, 0 when there is no grid at all).
func (s SweepSpec) gridCells() int {
	if s.Family == "" {
		if _, ok := s.axis(AxisFamily); !ok {
			return 0
		}
	}
	n := 1
	for _, a := range s.Axes {
		n *= a.Len()
	}
	return n
}

// NumCells returns the campaign's total cell count: grid cells first, then
// explicit specs.
func (s SweepSpec) NumCells() int { return s.gridCells() + len(s.Specs) }

// Validate reports structural errors. Scheme names resolve at compile time
// against the executor's registry, exactly as scenario.Spec names do.
func (s SweepSpec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("campaign: sweep needs a name")
	}
	seen := make(map[string]bool, len(s.Axes))
	for _, a := range s.Axes {
		if err := a.validate(); err != nil {
			return err
		}
		if seen[a.Name] {
			return fmt.Errorf("campaign: duplicate axis %q", a.Name)
		}
		seen[a.Name] = true
	}
	_, famAxis := s.axis(AxisFamily)
	if s.Family != "" && famAxis {
		return fmt.Errorf("campaign: sweep sets both a family field and a family axis; pick one")
	}
	if len(s.Axes) > 0 && s.Family == "" && !famAxis {
		return fmt.Errorf("campaign: axes need a family (field or axis) to instantiate")
	}
	if s.Family != "" {
		if _, ok := scenario.Family(s.Family); !ok {
			return fmt.Errorf("campaign: unknown family %q (known: %v)", s.Family, scenario.Families())
		}
	}
	if fam, ok := s.axis(AxisFamily); ok {
		for _, name := range fam.Strings {
			if _, known := scenario.Family(name); !known {
				return fmt.Errorf("campaign: unknown family %q on the family axis (known: %v)", name, scenario.Families())
			}
		}
	}
	if s.gridCells() > 0 {
		if _, schemeAxis := s.axis(AxisScheme); !schemeAxis && s.Scheme == "" {
			return fmt.Errorf("campaign: grid cells need a scheme (field or axis)")
		}
		if s.DurationSeconds <= 0 {
			return fmt.Errorf("campaign: grid cells need a positive duration_seconds")
		}
	}
	if s.NumCells() == 0 {
		return fmt.Errorf("campaign: sweep %q has no cells (no family, no axes, no specs)", s.Name)
	}
	for i, spec := range s.Specs {
		if spec.Name == "" {
			return fmt.Errorf("campaign: explicit spec %d needs a name (it anchors the cell ID)", i)
		}
		v := spec
		if v.DurationSeconds == 0 {
			v.DurationSeconds = s.DurationSeconds
		}
		if err := v.Validate(); err != nil {
			return fmt.Errorf("campaign: explicit spec %d: %w", i, err)
		}
	}
	if s.Repetitions < 0 {
		return fmt.Errorf("campaign: negative repetitions")
	}
	return nil
}

// workload returns the grid cells' static-flow workload.
func (s SweepSpec) workload() scenario.WorkloadSpec {
	if s.Workload != nil {
		return *s.Workload
	}
	return scenario.ByBytesWorkload(scenario.ExponentialDist(100e3), scenario.ExponentialDist(0.5))
}

// Marshal encodes the sweep as indented JSON.
func (s SweepSpec) Marshal() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// Unmarshal decodes a sweep from JSON, rejecting unknown keys so a typo'd
// field fails loudly instead of silently sweeping the wrong grid.
func Unmarshal(data []byte) (SweepSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s SweepSpec
	if err := dec.Decode(&s); err != nil {
		return SweepSpec{}, fmt.Errorf("campaign: decoding sweep: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return SweepSpec{}, fmt.Errorf("campaign: decoding sweep: trailing data after the JSON document")
	}
	return s, nil
}

// ReadFile loads a sweep from a JSON file.
func ReadFile(path string) (SweepSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return SweepSpec{}, fmt.Errorf("campaign: %w", err)
	}
	s, err := Unmarshal(data)
	if err != nil {
		return SweepSpec{}, fmt.Errorf("campaign: %s: %w", path, err)
	}
	return s, nil
}

// WriteFile saves the sweep as a JSON file.
func (s SweepSpec) WriteFile(path string) error {
	data, err := s.Marshal()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
