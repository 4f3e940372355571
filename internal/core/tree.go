package core

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
)

// Whisker is one rule of a RemyCC: a rectangular region of memory space
// mapped to an action, plus the bookkeeping the optimizer needs (the epoch
// counter of §4.3).
type Whisker struct {
	// Index is the whisker's position in the tree's leaf enumeration; it is
	// assigned by the tree and changes when the structure changes.
	Index int `json:"-"`
	// Domain is the memory-space box this rule covers.
	Domain MemoryRange `json:"domain"`
	// Action is the rule's output.
	Action Action `json:"action"`
	// Epoch is the optimizer's per-rule epoch counter.
	Epoch int `json:"epoch"`
}

// flatNode is one octree node in the tree's flattened node array: either a
// leaf referencing a whisker by index, or an internal node with a split
// point and eight child node indices.
type flatNode struct {
	split    Memory
	children [8]int32
	leaf     int32 // whisker index when >= 0; -1 for internal nodes
}

// WhiskerTree is the RemyCC rule table: an octree over memory space whose
// leaves are whiskers, stored as two flat value-typed arrays — the
// structural nodes and the leaf whiskers, both in DFS order — so that
// Lookup walks contiguous memory with no pointer chasing and no allocation.
//
// The node array is immutable once built: every structural change (Split,
// deserialization) builds a fresh array, and per-whisker mutation
// (SetAction, SetEpoch) touches only the whisker array. Clone and
// WithAction therefore share the structure and copy only the whiskers,
// which is what makes candidate construction in the optimizer a cheap
// copy-on-write instead of a per-candidate deep clone.
type WhiskerTree struct {
	nodes    []flatNode
	whiskers []Whisker
	domain   MemoryRange // the root box, used to clamp lookups
}

// NewWhiskerTree returns a tree with a single whisker covering all of memory
// space with the given action (the initial RemyCC of §4.3).
func NewWhiskerTree(action Action) *WhiskerTree {
	t := &WhiskerTree{
		nodes:    []flatNode{{leaf: 0}},
		whiskers: []Whisker{{Domain: FullMemoryRange(), Action: action.Clamp()}},
	}
	t.reindex()
	return t
}

// DefaultWhiskerTree returns the initial RemyCC with the default action.
func DefaultWhiskerTree() *WhiskerTree { return NewWhiskerTree(DefaultAction()) }

// reindex renumbers the leaves in DFS order and recomputes the root domain.
// It mutates the node array, so it must only run on a freshly built one.
// The whisker array is required to already be in DFS order; reindex pairs
// the k-th DFS leaf with whiskers[k].
func (t *WhiskerTree) reindex() {
	next := int32(0)
	var walk func(ni int32)
	walk = func(ni int32) {
		n := &t.nodes[ni]
		if n.leaf >= 0 {
			n.leaf = next
			t.whiskers[next].Index = int(next)
			next++
			return
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(0)
	t.domain = MemoryRange{
		Lower: t.whiskers[0].Domain.Lower,
		Upper: t.whiskers[len(t.whiskers)-1].Domain.Upper,
	}
}

// NumWhiskers returns the number of rules (leaves) in the tree.
func (t *WhiskerTree) NumWhiskers() int { return len(t.whiskers) }

// Whiskers returns a snapshot of all rules in index order.
func (t *WhiskerTree) Whiskers() []Whisker {
	out := make([]Whisker, len(t.whiskers))
	copy(out, t.whiskers)
	return out
}

// Whisker returns the rule with the given index.
func (t *WhiskerTree) Whisker(index int) (Whisker, error) {
	if index < 0 || index >= len(t.whiskers) {
		return Whisker{}, fmt.Errorf("core: whisker index %d out of range [0,%d)", index, len(t.whiskers))
	}
	return t.whiskers[index], nil
}

// Lookup finds the rule whose domain contains the (clamped) memory point and
// returns its index and action. Every point maps to exactly one rule.
//
//repo:hotpath per-ack rule match in training inner loop
func (t *WhiskerTree) Lookup(m Memory) (int, Action) {
	idx := t.lookup(t.clampToDomain(m))
	return idx, t.whiskers[idx].Action
}

// LookupHint is Lookup with a memo: hint is the rule a previous lookup
// matched (or negative for none). When the point still falls in that rule's
// domain — the common case for consecutive ACKs of one flow — the octree
// walk is skipped entirely (the C++ Remy's most-recently-matched whisker
// optimization). The result is identical to Lookup's, because whisker
// domains partition the clamped memory space.
//
//repo:hotpath per-ack memoized rule match
func (t *WhiskerTree) LookupHint(m Memory, hint int) (int, Action) {
	m = t.clampToDomain(m)
	if hint >= 0 && hint < len(t.whiskers) && t.whiskers[hint].Domain.Contains(m) {
		return hint, t.whiskers[hint].Action
	}
	idx := t.lookup(m)
	return idx, t.whiskers[idx].Action
}

// lookup descends the flattened octree; m must already be clamped.
//
//repo:hotpath octree descent per unmemoized ack
func (t *WhiskerTree) lookup(m Memory) int {
	ni := int32(0)
	for {
		n := &t.nodes[ni]
		if n.leaf >= 0 {
			return int(n.leaf)
		}
		idx := 0
		for axis := 0; axis < 3; axis++ {
			if m.Axis(axis) >= n.split.Axis(axis) {
				idx |= 1 << axis
			}
		}
		ni = n.children[idx]
	}
}

// clampToDomain nudges a memory point into the root domain's half-open box.
func (t *WhiskerTree) clampToDomain(m Memory) Memory {
	for axis := 0; axis < 3; axis++ {
		lo, hi := t.domain.Lower.Axis(axis), t.domain.Upper.Axis(axis)
		v := m.Axis(axis)
		if v < lo {
			m = m.WithAxis(axis, lo)
		} else if v >= hi {
			// Largest representable value strictly below the upper bound.
			m = m.WithAxis(axis, hi-1e-9)
		}
	}
	return m
}

// SetAction replaces the action of the rule with the given index.
func (t *WhiskerTree) SetAction(index int, a Action) error {
	if index < 0 || index >= len(t.whiskers) {
		return fmt.Errorf("core: whisker index %d out of range", index)
	}
	t.whiskers[index].Action = a.Clamp()
	return nil
}

// SetEpoch sets the epoch of the rule with the given index.
func (t *WhiskerTree) SetEpoch(index, epoch int) error {
	if index < 0 || index >= len(t.whiskers) {
		return fmt.Errorf("core: whisker index %d out of range", index)
	}
	t.whiskers[index].Epoch = epoch
	return nil
}

// SetAllEpochs sets every rule's epoch (§4.3 step 1).
func (t *WhiskerTree) SetAllEpochs(epoch int) {
	for i := range t.whiskers {
		t.whiskers[i].Epoch = epoch
	}
}

// Split replaces the rule with the given index by eight children split at
// the supplied memory point (clamped to the rule's interior), each child
// inheriting the parent's action and epoch (§4.3 step 5). Indices are
// reassigned afterwards. The node array is rebuilt, never modified in
// place, so trees sharing the structure (Clone, WithAction) are unaffected.
func (t *WhiskerTree) Split(index int, at Memory) error {
	if index < 0 || index >= len(t.whiskers) {
		return fmt.Errorf("core: whisker index %d out of range", index)
	}
	ni := -1
	for i := range t.nodes {
		if t.nodes[i].leaf == int32(index) {
			ni = i
			break
		}
	}
	if ni < 0 {
		return fmt.Errorf("core: no leaf node for whisker %d", index)
	}
	parent := t.whiskers[index]
	at = parent.Domain.ClampInterior(at)
	boxes := parent.Domain.Split(at)

	nodes := make([]flatNode, len(t.nodes), len(t.nodes)+len(boxes))
	copy(nodes, t.nodes)
	base := int32(len(nodes))
	for range boxes {
		nodes = append(nodes, flatNode{leaf: 0}) // renumbered by reindex
	}
	nodes[ni].leaf = -1
	nodes[ni].split = at
	for i := range boxes {
		nodes[ni].children[i] = base + int32(i)
	}

	// The eight children take the parent's slot in the DFS leaf order.
	whiskers := make([]Whisker, 0, len(t.whiskers)+len(boxes)-1)
	whiskers = append(whiskers, t.whiskers[:index]...)
	for _, box := range boxes {
		whiskers = append(whiskers, Whisker{Domain: box, Action: parent.Action, Epoch: parent.Epoch})
	}
	whiskers = append(whiskers, t.whiskers[index+1:]...)

	t.nodes, t.whiskers = nodes, whiskers
	t.reindex()
	return nil
}

// Clone returns an independent copy of the tree: the immutable node array
// is shared, the whisker array is copied. Mutations of either tree —
// including Split, which rebuilds the node array — never affect the other.
func (t *WhiskerTree) Clone() *WhiskerTree {
	whiskers := make([]Whisker, len(t.whiskers))
	copy(whiskers, t.whiskers)
	return &WhiskerTree{nodes: t.nodes, whiskers: whiskers, domain: t.domain}
}

// WithAction returns a candidate variant of the tree in which rule index
// has action a (clamped), leaving the receiver untouched. This is the
// copy-on-write constructor the optimizer uses to build its ~100 candidate
// tables per improvement step: structure shared, one whisker array copy.
func (t *WhiskerTree) WithAction(index int, a Action) (*WhiskerTree, error) {
	if index < 0 || index >= len(t.whiskers) {
		return nil, fmt.Errorf("core: whisker index %d out of range", index)
	}
	out := t.Clone()
	out.whiskers[index].Action = a.Clamp()
	return out, nil
}

// DiffFrom reports whether t shares base's node array (it is a Clone or
// WithAction descendant of the same structure, with no Split in between)
// and, if so, appends to dst the indices of the rules whose action or epoch
// differ. Domains follow from the shared structure, so those rules are all
// that separate the two trees; Variant is the inverse.
func (t *WhiskerTree) DiffFrom(base *WhiskerTree, dst []int) (rules []int, shared bool) {
	if len(t.nodes) != len(base.nodes) || len(t.nodes) == 0 || &t.nodes[0] != &base.nodes[0] {
		return dst, false
	}
	bits := math.Float64bits // bitwise, as CanonicalKey: -0 and NaN payloads count
	for i := range t.whiskers {
		w, b := &t.whiskers[i], &base.whiskers[i]
		if w.Epoch != b.Epoch ||
			bits(w.Action.WindowMultiple) != bits(b.Action.WindowMultiple) ||
			bits(w.Action.WindowIncrement) != bits(b.Action.WindowIncrement) ||
			bits(w.Action.IntersendMs) != bits(b.Action.IntersendMs) {
			dst = append(dst, i)
		}
	}
	return dst, true
}

// Variant returns a structure-sharing copy of the tree in which rule
// rules[i] carries actions[i] and epochs[i] verbatim — no clamping: it
// rebuilds a tree that already exists elsewhere (see DiffFrom), bit for bit.
func (t *WhiskerTree) Variant(rules []int, actions []Action, epochs []int) (*WhiskerTree, error) {
	if len(actions) != len(rules) || len(epochs) != len(rules) {
		return nil, fmt.Errorf("core: variant with %d rules, %d actions, %d epochs", len(rules), len(actions), len(epochs))
	}
	out := t.Clone()
	for i, r := range rules {
		if r < 0 || r >= len(out.whiskers) {
			return nil, fmt.Errorf("core: whisker index %d out of range [0,%d)", r, len(out.whiskers))
		}
		out.whiskers[r].Action = actions[i]
		out.whiskers[r].Epoch = epochs[i]
	}
	return out, nil
}

// CanonicalKey returns a byte-exact encoding of everything that affects the
// tree's run-time behaviour: the root domain, the octree structure with its
// split points, and each leaf's action. Epochs and indices are excluded —
// they are optimizer bookkeeping invisible to the simulated sender. Two
// trees with equal keys produce identical simulations, which is the
// property the optimizer's evaluation memoization keys on.
func (t *WhiskerTree) CanonicalKey() string {
	// 48 bytes of root domain, then 25 per node reached: a tag and three
	// values. len(t.nodes) bounds the nodes reached, so the buffer grown here
	// is the key's one allocation and String hands it over without a copy.
	var b strings.Builder
	b.Grow(48 + 25*len(t.nodes))
	for axis := 0; axis < 3; axis++ {
		appendKeyFloat(&b, t.domain.Lower.Axis(axis))
		appendKeyFloat(&b, t.domain.Upper.Axis(axis))
	}
	t.appendKey(&b, 0)
	return b.String()
}

// appendKey writes node ni's subtree of the canonical key.
func (t *WhiskerTree) appendKey(b *strings.Builder, ni int32) {
	n := &t.nodes[ni]
	if n.leaf >= 0 {
		a := t.whiskers[n.leaf].Action
		b.WriteByte('L')
		appendKeyFloat(b, a.WindowMultiple)
		appendKeyFloat(b, a.WindowIncrement)
		appendKeyFloat(b, a.IntersendMs)
		return
	}
	b.WriteByte('N')
	for axis := 0; axis < 3; axis++ {
		appendKeyFloat(b, n.split.Axis(axis))
	}
	for _, c := range n.children {
		t.appendKey(b, c)
	}
}

// appendKeyFloat writes v's IEEE-754 bits, little-endian.
func appendKeyFloat(b *strings.Builder, v float64) {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(v))
	b.Write(tmp[:])
}

// treeJSON is the serialized form: a recursive node structure.
type treeJSON struct {
	Leaf     bool        `json:"leaf"`
	Whisker  *Whisker    `json:"whisker,omitempty"`
	Split    *Memory     `json:"split,omitempty"`
	Children []*treeJSON `json:"children,omitempty"`
}

func (t *WhiskerTree) toJSON(ni int32) *treeJSON {
	n := t.nodes[ni]
	if n.leaf >= 0 {
		w := t.whiskers[n.leaf]
		return &treeJSON{Leaf: true, Whisker: &w}
	}
	s := n.split
	out := &treeJSON{Leaf: false, Split: &s}
	for _, c := range n.children {
		out.Children = append(out.Children, t.toJSON(c))
	}
	return out
}

// maxTreeDepth bounds how deep a deserialized tree may nest. Each level is two
// levels of JSON and a leaf four, so a deeper tree could be accepted from JSON
// that leaves out a leaf's domain and then fail to marshal, its own encoding
// past encoding/json's nesting limit of 10 000. Trained tables are a few
// levels deep.
const maxTreeDepth = 1024

// fromJSON appends the node described by j (and its subtree), depth levels
// below the root, to the tree's arrays in DFS order and returns its node
// index.
func (t *WhiskerTree) fromJSON(j *treeJSON, depth int) (int32, error) {
	if j == nil {
		return 0, fmt.Errorf("core: nil tree node")
	}
	if depth > maxTreeDepth {
		return 0, fmt.Errorf("core: tree deeper than %d levels", maxTreeDepth)
	}
	ni := int32(len(t.nodes))
	t.nodes = append(t.nodes, flatNode{})
	if j.Leaf {
		if j.Whisker == nil {
			return 0, fmt.Errorf("core: leaf node without whisker")
		}
		t.nodes[ni].leaf = int32(len(t.whiskers))
		t.whiskers = append(t.whiskers, *j.Whisker)
		return ni, nil
	}
	if len(j.Children) != 8 || j.Split == nil {
		return 0, fmt.Errorf("core: internal node must have a split point and 8 children, got %d", len(j.Children))
	}
	t.nodes[ni].leaf = -1
	t.nodes[ni].split = *j.Split
	for i, cj := range j.Children {
		ci, err := t.fromJSON(cj, depth+1)
		if err != nil {
			return 0, err
		}
		t.nodes[ni].children[i] = ci
	}
	return ni, nil
}

// MarshalJSON implements json.Marshaler.
func (t *WhiskerTree) MarshalJSON() ([]byte, error) {
	return json.Marshal(t.toJSON(0))
}

// UnmarshalJSON implements json.Unmarshaler.
func (t *WhiskerTree) UnmarshalJSON(data []byte) error {
	var j treeJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	fresh := WhiskerTree{}
	if _, err := fresh.fromJSON(&j, 0); err != nil {
		return err
	}
	*t = fresh
	t.reindex()
	return nil
}

// SaveFile writes the tree as indented JSON to path.
func (t *WhiskerTree) SaveFile(path string) error {
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// LoadFile reads a tree previously written by SaveFile.
func LoadFile(path string) (*WhiskerTree, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	t := &WhiskerTree{}
	if err := json.Unmarshal(data, t); err != nil {
		return nil, fmt.Errorf("core: parsing %s: %w", path, err)
	}
	return t, nil
}

// String summarizes the tree.
func (t *WhiskerTree) String() string {
	return fmt.Sprintf("WhiskerTree{%d rules}", t.NumWhiskers())
}
