package campaign

import (
	"fmt"
	"strconv"

	"repro/internal/scenario"
	"repro/internal/sim"
)

// Coord is one cell coordinate: an axis name and the canonical string form
// of its value (floats in shortest round-trip notation).
type Coord struct {
	Axis  string `json:"axis"`
	Value string `json:"value"`
}

// Cell identifies one point of the campaign grid (or one explicit spec). It
// carries everything needed to reproduce the cell standalone — the stable ID,
// the derived seed, the coordinates — but NOT the materialized scenario.Spec:
// cells are expanded lazily via Spec(), so enumerating a million-cell grid
// costs a million small structs, never a million compiled scenarios at once.
type Cell struct {
	// Index is the cell's position in canonical order: grid cells row-major
	// (first axis slowest), then explicit specs.
	Index int `json:"index"`
	// ID is the stable identity derived from the coordinates, e.g.
	// "family=flowchurn/scheme=cubic/offered_load=0.5". Explicit specs use
	// "spec[i]=<name>". IDs survive axis reordering of *values* never, but
	// adding cells to the end of an axis or appending specs keeps existing
	// IDs (and therefore seeds and results) stable.
	ID string `json:"id"`
	// Family is the scenario family grid cells instantiate ("" for explicit
	// specs).
	Family string `json:"family,omitempty"`
	// Scheme is the cell's protocol ("" when an explicit spec mixes schemes).
	Scheme string `json:"scheme,omitempty"`
	// Coords lists the grid coordinates in ID order (nil for explicit specs).
	Coords []Coord `json:"coords,omitempty"`
	// Seed is the cell's base seed: an explicit spec's own Seed when it sets
	// one, otherwise the campaign seed mixed with the cell's ID. Repetition
	// seeds derive from it through scenario.DeriveSeed exactly as for any
	// standalone spec.
	Seed int64 `json:"seed"`

	sweep *SweepSpec
	spec  int // explicit-spec index, -1 for grid cells
}

// deriveCellSeed mixes the campaign seed with an FNV-1a hash of a cell's
// stable ID, however its bytes are held. Deriving from the ID rather than the
// index means a cell's seed — and hence its results — do not change when
// axes grow or explicit specs are appended elsewhere in the sweep, and any
// cell can be re-run standalone from its manifest line alone.
func deriveCellSeed[ID string | []byte](base int64, id ID) int64 {
	h := uint64(14695981039346656037) // FNV-1a 64-bit offset basis
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211 // FNV-1a 64-bit prime
	}
	return int64(sim.SplitMix64(sim.SplitMix64(uint64(base)) ^ h))
}

// Cell returns the i-th cell's metadata (grid cells first, row-major, then
// explicit specs). It never materializes the scenario spec; call Cell.Spec
// for that.
func (s *SweepSpec) Cell(i int) (Cell, error) {
	return (&identity{sweep: s, grid: s.gridCells()}).cell(i, make([]Coord, len(s.Axes)))
}

// identity renders a sweep's cell identities: coordinates, ID and seed.
// values holds each axis's canonical coordinate strings, formatted once by
// newIdentity and shared by every Coord — and so every Cell and record —
// rendered from it; without values a coordinate is formatted when rendered,
// which is all a single SweepSpec.Cell lookup needs.
type identity struct {
	sweep  *SweepSpec
	grid   int
	values [][]string
}

// newIdentity formats every axis's coordinates once, for rendering many
// cells.
func newIdentity(s *SweepSpec) *identity {
	x := &identity{sweep: s, grid: s.gridCells(), values: make([][]string, len(s.Axes))}
	for a, ax := range s.Axes {
		if len(ax.Strings) > 0 {
			x.values[a] = ax.Strings
			continue
		}
		x.values[a] = make([]string, len(ax.Values))
		for k := range ax.Values {
			x.values[a][k] = ax.coord(k)
		}
	}
	return x
}

// cell returns cell i's metadata. A grid cell's coordinates go into coords,
// one per axis, which the cell keeps; an explicit spec's cell has none.
func (x *identity) cell(i int, coords []Coord) (Cell, error) {
	s := x.sweep
	if i < 0 || i >= s.NumCells() {
		return Cell{}, fmt.Errorf("campaign: cell index %d out of range [0,%d)", i, s.NumCells())
	}
	c := Cell{Index: i, sweep: s, spec: -1}
	if i < x.grid {
		c.Coords = coords[:len(s.Axes):len(s.Axes)]
	} else {
		c.spec = i - x.grid
	}
	var buf [128]byte
	id := x.render(buf[:0], c.Coords, i)
	c.ID = string(id)
	c.Seed = x.seed(id, i)
	c.Family, c.Scheme = x.kind(c.Coords, i)
	return c, nil
}

// render appends cell i's stable ID to dst. A grid cell's coordinates go
// into coords, one per axis in axis order, and its ID is "family=<family>"
// (whether the family came from the field or the family axis) followed by
// every non-family axis as "<axis>=<value>" in declaration order, joined by
// '/'. An explicit spec's ID is "spec[<j>]=<name>" and it has no
// coordinates. i must be a valid cell index.
func (x *identity) render(dst []byte, coords []Coord, i int) []byte {
	s := x.sweep
	if i >= x.grid {
		j := i - x.grid
		dst = append(dst, "spec["...)
		dst = strconv.AppendInt(dst, int64(j), 10)
		dst = append(dst, "]="...)
		return append(dst, s.Specs[j].Name...)
	}
	// Mixed-radix decode: the first axis varies slowest.
	stride, rem := x.grid, i
	for a, ax := range s.Axes {
		stride /= ax.Len()
		coords[a] = Coord{Axis: ax.Name, Value: x.value(a, rem/stride)}
		rem %= stride
	}
	family, _ := x.kind(coords, i)
	dst = append(dst, "family="...)
	dst = append(dst, family...)
	for _, c := range coords {
		if c.Axis == AxisFamily {
			continue
		}
		dst = append(dst, '/')
		dst = append(dst, c.Axis...)
		dst = append(dst, '=')
		dst = append(dst, c.Value...)
	}
	return dst
}

// seed returns cell i's base seed, given the ID render wrote for it: an
// explicit spec's own Seed when it sets one, otherwise deriveCellSeed of the
// campaign seed and the ID.
func (x *identity) seed(id []byte, i int) int64 {
	if i >= x.grid {
		if seed := x.sweep.Specs[i-x.grid].Seed; seed != 0 {
			return seed
		}
	}
	return deriveCellSeed(x.sweep.Seed, id)
}

// value returns axis a's k-th canonical coordinate.
func (x *identity) value(a, k int) string {
	if x.values != nil {
		return x.values[a][k]
	}
	return x.sweep.Axes[a].coord(k)
}

// kind returns cell i's family and scheme, given the coordinates render
// filled in for it.
func (x *identity) kind(coords []Coord, i int) (family, scheme string) {
	s := x.sweep
	if i >= x.grid {
		return "", specScheme(s.Specs[i-x.grid])
	}
	family, scheme = s.Family, s.Scheme
	for _, c := range coords {
		switch c.Axis {
		case AxisFamily:
			family = c.Value
		case AxisScheme:
			scheme = c.Value
		}
	}
	return family, scheme
}

// specScheme returns the single scheme an explicit spec runs, or "" when it
// mixes several.
func specScheme(spec scenario.Spec) string {
	scheme := ""
	note := func(s string) bool {
		if s == "" || (scheme != "" && scheme != s) {
			return false
		}
		scheme = s
		return true
	}
	for _, f := range spec.Flows {
		if !note(f.Scheme) {
			return ""
		}
	}
	if spec.Churn != nil {
		for _, c := range spec.Churn.Classes {
			if !note(c.Scheme) {
				return ""
			}
		}
	}
	return scheme
}

// Spec materializes the cell's executable scenario spec: the family builder
// applied to the cell's coordinates (or the explicit spec), with the cell's
// seed and the sweep's repetition budget. The result is a plain
// scenario.Spec — running it standalone with any scenario.Runner reproduces
// the campaign's numbers for this cell exactly.
func (c Cell) Spec() (scenario.Spec, error) {
	if c.sweep == nil {
		return scenario.Spec{}, fmt.Errorf("campaign: cell %q was not produced by SweepSpec.Cell", c.ID)
	}
	if c.spec >= 0 {
		spec := c.sweep.Specs[c.spec]
		spec.Seed = c.Seed
		if spec.DurationSeconds == 0 {
			spec.DurationSeconds = c.sweep.DurationSeconds
		}
		if spec.Repetitions == 0 {
			spec.Repetitions = c.sweep.Reps()
		}
		return spec, nil
	}
	build, ok := scenario.Family(c.Family)
	if !ok {
		return scenario.Spec{}, fmt.Errorf("campaign: cell %q names unknown family %q", c.ID, c.Family)
	}
	cfg := scenario.FamilyConfig{
		Scheme:          c.Scheme,
		RemyCC:          c.sweep.RemyCC,
		Workload:        c.sweep.workload(),
		DurationSeconds: c.sweep.DurationSeconds,
		Seed:            c.Seed,
		Repetitions:     c.sweep.Reps(),
	}
	for _, co := range c.Coords {
		switch co.Axis {
		case AxisScheme, AxisFamily:
			// Already captured in c.Scheme / c.Family.
		case AxisOfferedLoad:
			cfg.OfferedLoad = mustFloat(co.Value)
		case AxisRTTMs:
			cfg.RTTMs = mustFloat(co.Value)
		case AxisRateScale:
			cfg.RateScale = mustFloat(co.Value)
		case AxisBufferPackets:
			cfg.BufferPackets = int(mustFloat(co.Value))
		case AxisOutageS:
			cfg.OutageSeconds = mustFloat(co.Value)
		case AxisBurstLoss:
			cfg.BurstLoss = mustFloat(co.Value)
		default:
			return scenario.Spec{}, fmt.Errorf("campaign: cell %q has unknown axis %q", c.ID, co.Axis)
		}
	}
	return build(cfg), nil
}

// mustFloat parses a canonical coordinate back to its float64. Coordinates
// are produced by strconv.FormatFloat, so parsing cannot fail on specs that
// passed validation.
func mustFloat(s string) float64 {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		panic(fmt.Sprintf("campaign: corrupt coordinate %q: %v", s, err))
	}
	return v
}
