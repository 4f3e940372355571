package core

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"path/filepath"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/cc"
	"repro/internal/netsim"
	"repro/internal/sim"
)

func TestMemoryAxisAccessors(t *testing.T) {
	m := Memory{AckEWMA: 1, SendEWMA: 2, RTTRatio: 3}
	if m.Axis(0) != 1 || m.Axis(1) != 2 || m.Axis(2) != 3 {
		t.Error("Axis")
	}
	m2 := m.WithAxis(0, 10).WithAxis(1, 20).WithAxis(2, 30)
	if m2.AckEWMA != 10 || m2.SendEWMA != 20 || m2.RTTRatio != 30 {
		t.Error("WithAxis")
	}
	if m.AckEWMA != 1 {
		t.Error("WithAxis must not mutate the receiver")
	}
	if m.String() == "" {
		t.Error("String")
	}
}

func TestMemoryClamp(t *testing.T) {
	m := Memory{AckEWMA: -5, SendEWMA: 2 * MaxMemoryValue, RTTRatio: math.NaN()}.Clamp()
	if m.AckEWMA != 0 || m.SendEWMA != MaxMemoryValue || m.RTTRatio != 0 {
		t.Errorf("Clamp = %+v", m)
	}
}

func TestMemoryUpdateEWMAs(t *testing.T) {
	m := Memory{}
	m = m.UpdateEWMAs(8, 16)
	if m.AckEWMA != 1 || m.SendEWMA != 2 {
		t.Errorf("after first update: %+v", m)
	}
	// Converges toward the new value over repeated samples.
	for i := 0; i < 200; i++ {
		m = m.UpdateEWMAs(8, 16)
	}
	if math.Abs(m.AckEWMA-8) > 0.01 || math.Abs(m.SendEWMA-16) > 0.01 {
		t.Errorf("EWMAs did not converge: %+v", m)
	}
}

func TestMemoryRangeContains(t *testing.T) {
	r := FullMemoryRange()
	if !r.Contains(Memory{}) {
		t.Error("full range must contain the origin")
	}
	if r.Contains(Memory{AckEWMA: MaxMemoryValue}) {
		t.Error("upper bound is exclusive")
	}
	small := MemoryRange{Lower: Memory{1, 1, 1}, Upper: Memory{2, 2, 2}}
	if !small.Contains(Memory{1.5, 1.5, 1.5}) || small.Contains(Memory{0.5, 1.5, 1.5}) {
		t.Error("Contains")
	}
	if small.Volume() != 1 {
		t.Error("Volume")
	}
	mid := small.Midpoint()
	if mid.AckEWMA != 1.5 || mid.SendEWMA != 1.5 || mid.RTTRatio != 1.5 {
		t.Error("Midpoint")
	}
	if small.String() == "" {
		t.Error("String")
	}
}

func TestMemoryRangeSplitCoversParent(t *testing.T) {
	parent := MemoryRange{Lower: Memory{0, 0, 0}, Upper: Memory{8, 8, 8}}
	children := parent.Split(Memory{2, 4, 6})
	if len(children) != 8 {
		t.Fatalf("got %d children", len(children))
	}
	var vol float64
	for _, c := range children {
		vol += c.Volume()
	}
	if math.Abs(vol-parent.Volume()) > 1e-9 {
		t.Errorf("children volumes sum to %v, parent %v", vol, parent.Volume())
	}
	// Every point in the parent belongs to exactly one child.
	g := sim.NewRNG(1)
	for i := 0; i < 500; i++ {
		p := Memory{g.Uniform(0, 8), g.Uniform(0, 8), g.Uniform(0, 8)}
		count := 0
		for _, c := range children {
			if c.Contains(p) {
				count++
			}
		}
		if count != 1 {
			t.Fatalf("point %v in %d children", p, count)
		}
	}
}

func TestMemoryRangeSplitAtBoundaryUsesMidpoint(t *testing.T) {
	parent := MemoryRange{Lower: Memory{0, 0, 0}, Upper: Memory{4, 4, 4}}
	// A split point on the boundary (or outside) must not create empty boxes.
	children := parent.Split(Memory{0, 10, 4})
	for _, c := range children {
		if c.Volume() <= 0 {
			t.Fatalf("degenerate child %v", c)
		}
	}
}

func TestActionClampAndApply(t *testing.T) {
	a := Action{WindowMultiple: -1, WindowIncrement: 1000, IntersendMs: 0}.Clamp()
	if a.WindowMultiple != MinWindowMultiple || a.WindowIncrement != MaxWindowIncrement || a.IntersendMs != MinIntersendMs {
		t.Errorf("Clamp = %+v", a)
	}
	d := DefaultAction()
	if d.WindowMultiple != 1 || d.WindowIncrement != 1 || d.IntersendMs != 0.01 {
		t.Error("DefaultAction")
	}
	if got := d.Apply(10); got != 11 {
		t.Errorf("Apply = %v", got)
	}
	big := Action{WindowMultiple: 4, WindowIncrement: 64, IntersendMs: 1}
	if got := big.Apply(MaxWindow); got != MaxWindow {
		t.Errorf("Apply must clamp to MaxWindow, got %v", got)
	}
	shrink := Action{WindowMultiple: 0, WindowIncrement: -10, IntersendMs: 1}
	if got := shrink.Apply(5); got != 0 {
		t.Errorf("Apply must clamp at 0, got %v", got)
	}
	if d.String() == "" {
		t.Error("String")
	}
	if !d.Equal(DefaultAction()) || d.Equal(big) {
		t.Error("Equal")
	}
}

func TestActionNeighbors(t *testing.T) {
	a := DefaultAction()
	neighbors := a.Neighbors(2)
	if len(neighbors) == 0 {
		t.Fatal("no neighbors")
	}
	// Roughly 5^3 - 1 combinations, minus clamping collisions.
	if len(neighbors) > 124 {
		t.Errorf("too many neighbors: %d", len(neighbors))
	}
	seen := make(map[Action]bool)
	for _, n := range neighbors {
		if n.Equal(a) {
			t.Error("neighbors must exclude the current action")
		}
		if seen[n] {
			t.Error("duplicate neighbor")
		}
		seen[n] = true
		c := n.Clamp()
		if !c.Equal(n) {
			t.Errorf("neighbor %v outside legal range", n)
		}
	}
	// rungs<=0 falls back to a sane default.
	if len(a.Neighbors(0)) == 0 {
		t.Error("Neighbors(0)")
	}
}

func TestWhiskerTreeInitialLookup(t *testing.T) {
	tree := DefaultWhiskerTree()
	if tree.NumWhiskers() != 1 {
		t.Fatalf("initial tree has %d whiskers", tree.NumWhiskers())
	}
	idx, action := tree.Lookup(Memory{5, 5, 1})
	if idx != 0 || !action.Equal(DefaultAction()) {
		t.Errorf("Lookup = %d %v", idx, action)
	}
	// Points outside the domain clamp onto it.
	idx, _ = tree.Lookup(Memory{-10, 1e9, 3})
	if idx != 0 {
		t.Error("clamped lookup")
	}
	if tree.String() == "" {
		t.Error("String")
	}
}

func TestWhiskerTreeSetters(t *testing.T) {
	tree := DefaultWhiskerTree()
	newAction := Action{WindowMultiple: 0.5, WindowIncrement: 3, IntersendMs: 0.2}
	if err := tree.SetAction(0, newAction); err != nil {
		t.Fatal(err)
	}
	_, got := tree.Lookup(Memory{})
	if !got.Equal(newAction) {
		t.Errorf("action not updated: %v", got)
	}
	if err := tree.SetAction(5, newAction); err == nil {
		t.Error("out-of-range SetAction accepted")
	}
	if err := tree.SetEpoch(0, 7); err != nil {
		t.Fatal(err)
	}
	w, err := tree.Whisker(0)
	if err != nil || w.Epoch != 7 {
		t.Error("SetEpoch")
	}
	if err := tree.SetEpoch(9, 1); err == nil {
		t.Error("out-of-range SetEpoch accepted")
	}
	if _, err := tree.Whisker(-1); err == nil {
		t.Error("out-of-range Whisker accepted")
	}
	tree.SetAllEpochs(3)
	for _, w := range tree.Whiskers() {
		if w.Epoch != 3 {
			t.Error("SetAllEpochs")
		}
	}
}

func TestWhiskerTreeSplit(t *testing.T) {
	tree := DefaultWhiskerTree()
	if err := tree.Split(0, Memory{100, 200, 2}); err != nil {
		t.Fatal(err)
	}
	if tree.NumWhiskers() != 8 {
		t.Fatalf("after split: %d whiskers", tree.NumWhiskers())
	}
	if err := tree.Split(99, Memory{}); err == nil {
		t.Error("out-of-range Split accepted")
	}
	// Children inherit the parent's action.
	for _, w := range tree.Whiskers() {
		if !w.Action.Equal(DefaultAction()) {
			t.Error("child action differs from parent")
		}
	}
	// Lookup lands in the child whose domain contains the point.
	for _, probe := range []Memory{{50, 50, 1}, {150, 50, 1}, {50, 250, 1}, {150, 250, 3}, {16000, 16000, 1000}} {
		idx, _ := tree.Lookup(probe)
		w, _ := tree.Whisker(idx)
		if !w.Domain.Contains(probe) {
			t.Errorf("lookup of %v returned whisker with domain %v", probe, w.Domain)
		}
	}
	// Split a child again (deeper tree).
	if err := tree.Split(3, Memory{}); err != nil {
		t.Fatal(err)
	}
	if tree.NumWhiskers() != 15 {
		t.Errorf("after second split: %d whiskers", tree.NumWhiskers())
	}
}

// Property: after arbitrary splits, every memory point maps to exactly one
// whisker whose domain contains it, and the whisker domains are disjoint.
func TestWhiskerTreeCoverageProperty(t *testing.T) {
	f := func(seed int64, splits uint8) bool {
		g := sim.NewRNG(seed)
		tree := DefaultWhiskerTree()
		n := int(splits%12) + 1
		for i := 0; i < n; i++ {
			idx := g.Intn(tree.NumWhiskers())
			w, _ := tree.Whisker(idx)
			at := Memory{
				g.Uniform(w.Domain.Lower.AckEWMA, w.Domain.Upper.AckEWMA),
				g.Uniform(w.Domain.Lower.SendEWMA, w.Domain.Upper.SendEWMA),
				g.Uniform(w.Domain.Lower.RTTRatio, w.Domain.Upper.RTTRatio),
			}
			if err := tree.Split(idx, at); err != nil {
				return false
			}
		}
		whiskers := tree.Whiskers()
		for i := 0; i < 100; i++ {
			p := Memory{
				g.Uniform(0, MaxMemoryValue),
				g.Uniform(0, MaxMemoryValue),
				g.Uniform(0, MaxMemoryValue),
			}
			count := 0
			var containing int
			for _, w := range whiskers {
				if w.Domain.Contains(p) {
					count++
					containing = w.Index
				}
			}
			if count != 1 {
				return false
			}
			idx, _ := tree.Lookup(p)
			if idx != containing {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestWhiskerTreeCloneIsIndependent(t *testing.T) {
	tree := DefaultWhiskerTree()
	tree.Split(0, Memory{100, 100, 2})
	clone := tree.Clone()
	if clone.NumWhiskers() != tree.NumWhiskers() {
		t.Fatal("clone size mismatch")
	}
	newAction := Action{WindowMultiple: 2, WindowIncrement: 5, IntersendMs: 1}
	clone.SetAction(0, newAction)
	w, _ := tree.Whisker(0)
	if w.Action.Equal(newAction) {
		t.Error("mutating the clone changed the original")
	}
	clone.Split(1, Memory{})
	if tree.NumWhiskers() == clone.NumWhiskers() {
		t.Error("splitting the clone changed the original")
	}
}

func TestWhiskerTreeSerializationRoundTrip(t *testing.T) {
	tree := DefaultWhiskerTree()
	tree.Split(0, Memory{123, 456, 3})
	tree.SetAction(2, Action{WindowMultiple: 0.75, WindowIncrement: -2, IntersendMs: 0.5})
	tree.SetEpoch(4, 9)

	data, err := json.Marshal(tree)
	if err != nil {
		t.Fatal(err)
	}
	var back WhiskerTree
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.NumWhiskers() != tree.NumWhiskers() {
		t.Fatalf("round trip changed whisker count: %d vs %d", back.NumWhiskers(), tree.NumWhiskers())
	}
	origWhiskers := tree.Whiskers()
	backWhiskers := back.Whiskers()
	for i := range origWhiskers {
		if !origWhiskers[i].Action.Equal(backWhiskers[i].Action) ||
			origWhiskers[i].Epoch != backWhiskers[i].Epoch ||
			origWhiskers[i].Domain != backWhiskers[i].Domain {
			t.Errorf("whisker %d differs after round trip", i)
		}
	}
	// Lookups agree on random points.
	g := sim.NewRNG(3)
	for i := 0; i < 200; i++ {
		p := Memory{g.Uniform(0, MaxMemoryValue), g.Uniform(0, MaxMemoryValue), g.Uniform(0, MaxMemoryValue)}
		i1, a1 := tree.Lookup(p)
		i2, a2 := back.Lookup(p)
		if i1 != i2 || !a1.Equal(a2) {
			t.Fatalf("lookup mismatch at %v", p)
		}
	}
}

func TestWhiskerTreeUnmarshalErrors(t *testing.T) {
	var tr WhiskerTree
	if err := json.Unmarshal([]byte(`{"leaf": true}`), &tr); err == nil {
		t.Error("leaf without whisker accepted")
	}
	if err := json.Unmarshal([]byte(`{"leaf": false, "children": []}`), &tr); err == nil {
		t.Error("internal node without children accepted")
	}
	if err := json.Unmarshal([]byte(`not json`), &tr); err == nil {
		t.Error("invalid json accepted")
	}
}

func TestWhiskerTreeSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "remycc.json")
	tree := DefaultWhiskerTree()
	tree.Split(0, Memory{10, 20, 2})
	if err := tree.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumWhiskers() != tree.NumWhiskers() {
		t.Error("loaded tree differs")
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

// recorder captures rule lookups for testing.
type recorder struct {
	uses []int
	mems []Memory
}

func (r *recorder) RecordUse(idx int, m Memory) {
	r.uses = append(r.uses, idx)
	r.mems = append(r.mems, m)
}

func ackEvent(now, sentAt, rtt, minRTT sim.Time) cc.AckEvent {
	return cc.AckEvent{
		Now:        now,
		RTT:        rtt,
		MinRTT:     minRTT,
		NewlyAcked: 1,
		MSS:        netsim.MTU,
		Ack:        netsim.Ack{SentAt: sentAt},
	}
}

func TestSenderAppliesActions(t *testing.T) {
	// A tree whose single rule multiplies the window by 1 and adds 2, with a
	// 5 ms intersend gap.
	tree := NewWhiskerTree(Action{WindowMultiple: 1, WindowIncrement: 2, IntersendMs: 5})
	s := NewSender(tree)
	if s.Name() != "remy" || s.Tree() != tree {
		t.Error("accessors")
	}
	if s.Window() != 1 {
		t.Errorf("initial window = %v", s.Window())
	}
	if s.PacingGap() != sim.FromMillis(5) {
		t.Errorf("initial pacing gap = %v", s.PacingGap())
	}
	rec := &recorder{}
	s.Recorder = rec

	// First ack: memory EWMAs stay zero (no previous ack), window 1 -> 3.
	s.OnAck(ackEvent(100*sim.Millisecond, 0, 100*sim.Millisecond, 100*sim.Millisecond))
	if s.Window() != 3 {
		t.Errorf("window after first ack = %v", s.Window())
	}
	m := s.Memory()
	if m.AckEWMA != 0 || m.SendEWMA != 0 {
		t.Errorf("EWMAs should remain 0 after the first ack: %+v", m)
	}
	if m.RTTRatio != 1 {
		t.Errorf("rtt_ratio = %v, want 1", m.RTTRatio)
	}

	// Second ack 8 ms later for a packet sent 4 ms after the first: EWMAs
	// move by 1/8 of the new samples.
	s.OnAck(ackEvent(108*sim.Millisecond, 4*sim.Millisecond, 150*sim.Millisecond, 100*sim.Millisecond))
	m = s.Memory()
	if math.Abs(m.AckEWMA-1.0) > 1e-9 { // 8 ms / 8
		t.Errorf("ack_ewma = %v, want 1", m.AckEWMA)
	}
	if math.Abs(m.SendEWMA-0.5) > 1e-9 { // 4 ms / 8
		t.Errorf("send_ewma = %v, want 0.5", m.SendEWMA)
	}
	if math.Abs(m.RTTRatio-1.5) > 1e-9 {
		t.Errorf("rtt_ratio = %v, want 1.5", m.RTTRatio)
	}
	if s.Window() != 5 {
		t.Errorf("window after second ack = %v", s.Window())
	}
	if len(rec.uses) != 2 {
		t.Errorf("recorder saw %d uses", len(rec.uses))
	}

	// Reset clears everything.
	s.Reset(0)
	if s.Window() != 1 || s.Memory() != (Memory{}) {
		t.Error("Reset")
	}
}

func TestSenderLossAndTimeout(t *testing.T) {
	tree := DefaultWhiskerTree()
	s := NewSender(tree)
	for i := 0; i < 5; i++ {
		s.OnAck(ackEvent(sim.Time(i+1)*100*sim.Millisecond, sim.Time(i)*100*sim.Millisecond,
			100*sim.Millisecond, 100*sim.Millisecond))
	}
	before := s.Window()
	s.OnLoss(sim.Second)
	if s.Window() != before {
		t.Error("RemyCC must not react to loss events")
	}
	s.OnTimeout(2 * sim.Second)
	if s.Window() != 1 {
		t.Errorf("window after timeout = %v, want 1", s.Window())
	}
}

func TestSenderActionSelectionBySplitRegion(t *testing.T) {
	// Split the tree on rtt_ratio and give the high-ratio region a shrink
	// action: the sender must pick the region matching its memory.
	tree := DefaultWhiskerTree()
	if err := tree.Split(0, Memory{AckEWMA: 8192, SendEWMA: 8192, RTTRatio: 2}); err != nil {
		t.Fatal(err)
	}
	shrink := Action{WindowMultiple: 0.5, WindowIncrement: 0, IntersendMs: 1}
	for _, w := range tree.Whiskers() {
		if w.Domain.Lower.RTTRatio >= 2 {
			tree.SetAction(w.Index, shrink)
		}
	}
	s := NewSender(tree)
	// Low rtt_ratio: default growth action.
	s.OnAck(ackEvent(100*sim.Millisecond, 0, 100*sim.Millisecond, 100*sim.Millisecond))
	if s.Window() <= 1 {
		t.Errorf("low-ratio ack should grow the window, got %v", s.Window())
	}
	grew := s.Window()
	// High rtt_ratio (congestion): shrink action halves the window.
	s.OnAck(ackEvent(200*sim.Millisecond, 10*sim.Millisecond, 400*sim.Millisecond, 100*sim.Millisecond))
	if s.Window() >= grew {
		t.Errorf("high-ratio ack should shrink the window: %v -> %v", grew, s.Window())
	}
	if s.PacingGap() != sim.FromMillis(1) {
		t.Errorf("pacing gap should follow the matched action, got %v", s.PacingGap())
	}
}

func BenchmarkWhiskerTreeLookup(b *testing.B) {
	tree := DefaultWhiskerTree()
	g := sim.NewRNG(1)
	// Build a realistic-size table (~150 rules) by repeated splits.
	for tree.NumWhiskers() < 150 {
		idx := g.Intn(tree.NumWhiskers())
		w, _ := tree.Whisker(idx)
		tree.Split(idx, w.Domain.Midpoint())
	}
	points := make([]Memory, 1024)
	for i := range points {
		points[i] = Memory{g.Uniform(0, MaxMemoryValue), g.Uniform(0, MaxMemoryValue), g.Uniform(0, MaxMemoryValue)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Lookup(points[i%len(points)])
	}
}

func BenchmarkSenderOnAck(b *testing.B) {
	tree := DefaultWhiskerTree()
	s := NewSender(tree)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		now := sim.Time(i+1) * sim.Millisecond
		s.OnAck(ackEvent(now, now-100*sim.Millisecond, 100*sim.Millisecond, 90*sim.Millisecond))
	}
}

func TestWhiskerTreeLookupHintMatchesLookup(t *testing.T) {
	// Property: LookupHint returns exactly what Lookup returns, for any
	// hint value (valid, stale, or out of range).
	g := sim.NewRNG(9)
	tree := DefaultWhiskerTree()
	for i := 0; i < 6; i++ {
		idx := g.Intn(tree.NumWhiskers())
		w, _ := tree.Whisker(idx)
		at := Memory{
			g.Uniform(w.Domain.Lower.AckEWMA, w.Domain.Upper.AckEWMA),
			g.Uniform(w.Domain.Lower.SendEWMA, w.Domain.Upper.SendEWMA),
			g.Uniform(w.Domain.Lower.RTTRatio, w.Domain.Upper.RTTRatio),
		}
		if err := tree.Split(idx, at); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2000; i++ {
		p := Memory{
			g.Uniform(-10, MaxMemoryValue+10),
			g.Uniform(-10, MaxMemoryValue+10),
			g.Uniform(0, MaxMemoryValue+10),
		}
		wantIdx, wantAction := tree.Lookup(p)
		for _, hint := range []int{-1, 0, wantIdx, g.Intn(tree.NumWhiskers()), tree.NumWhiskers() + 5} {
			gotIdx, gotAction := tree.LookupHint(p, hint)
			if gotIdx != wantIdx || !gotAction.Equal(wantAction) {
				t.Fatalf("LookupHint(%v, %d) = %d, want %d", p, hint, gotIdx, wantIdx)
			}
		}
	}
}

func TestWhiskerTreeLookupAllocationFree(t *testing.T) {
	tree := DefaultWhiskerTree()
	tree.Split(0, Memory{100, 100, 2})
	tree.Split(3, Memory{50, 50, 1.5})
	p := Memory{60, 60, 1.7}
	if n := testing.AllocsPerRun(100, func() { tree.Lookup(p) }); n != 0 {
		t.Errorf("Lookup allocates %v times per call", n)
	}
	if n := testing.AllocsPerRun(100, func() { tree.LookupHint(p, 2) }); n != 0 {
		t.Errorf("LookupHint allocates %v times per call", n)
	}
}

func TestWhiskerTreeWithAction(t *testing.T) {
	tree := DefaultWhiskerTree()
	tree.Split(0, Memory{100, 100, 2})
	newAction := Action{WindowMultiple: 2, WindowIncrement: 5, IntersendMs: 1}
	cand, err := tree.WithAction(3, newAction)
	if err != nil {
		t.Fatal(err)
	}
	if w, _ := cand.Whisker(3); !w.Action.Equal(newAction) {
		t.Error("candidate does not carry the new action")
	}
	if w, _ := tree.Whisker(3); w.Action.Equal(newAction) {
		t.Error("WithAction mutated the receiver")
	}
	// Lookups on the two trees agree except inside the modified whisker.
	g := sim.NewRNG(12)
	for i := 0; i < 500; i++ {
		p := Memory{g.Uniform(0, MaxMemoryValue), g.Uniform(0, MaxMemoryValue), g.Uniform(0, MaxMemoryValue)}
		i1, a1 := tree.Lookup(p)
		i2, a2 := cand.Lookup(p)
		if i1 != i2 {
			t.Fatalf("index mismatch at %v", p)
		}
		if i1 == 3 {
			if !a2.Equal(newAction.Clamp()) {
				t.Fatalf("candidate action not applied at %v", p)
			}
		} else if !a1.Equal(a2) {
			t.Fatalf("action mismatch at %v", p)
		}
	}
	// Structural ops on the candidate leave the original intact (the shared
	// node array is rebuilt, never modified in place).
	if err := cand.Split(1, Memory{}); err != nil {
		t.Fatal(err)
	}
	if tree.NumWhiskers() == cand.NumWhiskers() {
		t.Error("splitting the candidate changed the original")
	}
	if _, err := tree.WithAction(99, newAction); err == nil {
		t.Error("out-of-range WithAction accepted")
	}
}

// TestWhiskerTreeDiffFromAndVariant pins the pair the distributed wire is
// built on: DiffFrom names exactly the rules that separate two trees on one
// node array, bit for bit, and Variant rebuilds the one from the other.
func TestWhiskerTreeDiffFromAndVariant(t *testing.T) {
	base := DefaultWhiskerTree()
	base.Split(0, Memory{100, 100, 2})
	base.SetAction(5, Action{WindowMultiple: 1, WindowIncrement: 0, IntersendMs: 1})

	same := base.Clone()
	if rules, shared := same.DiffFrom(base, nil); !shared || len(rules) != 0 {
		t.Fatalf("a clone differs from its source in %v (shared=%v)", rules, shared)
	}
	cand, _ := base.WithAction(3, Action{WindowMultiple: 2, WindowIncrement: 5, IntersendMs: 1})
	cand.SetEpoch(6, 4)
	// -0 equals 0 under ==, and must still count: CanonicalKey is bitwise.
	cand.SetAction(5, Action{WindowMultiple: 1, WindowIncrement: math.Copysign(0, -1), IntersendMs: 1})
	rules, shared := cand.DiffFrom(base, []int{-1})
	if want := []int{-1, 3, 5, 6}; !shared || !slices.Equal(rules, want) {
		t.Fatalf("DiffFrom = %v (shared=%v), want %v appended to dst", rules, shared, want)
	}

	rules = rules[1:]
	actions, epochs := make([]Action, len(rules)), make([]int, len(rules))
	for i, r := range rules {
		w, _ := cand.Whisker(r)
		actions[i], epochs[i] = w.Action, w.Epoch
	}
	rebuilt, err := base.Variant(rules, actions, epochs)
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt.CanonicalKey() != cand.CanonicalKey() {
		t.Error("Variant did not rebuild the candidate's behaviour")
	}
	for i, w := range cand.Whiskers() {
		if got, _ := rebuilt.Whisker(i); got != w {
			t.Errorf("rule %d rebuilt as %+v, want %+v", i, got, w)
		}
	}
	if _, shared := rebuilt.DiffFrom(cand, nil); !shared {
		t.Error("Variant did not share its base's node array")
	}
	if w, _ := base.Whisker(3); w.Action.WindowMultiple == 2 {
		t.Error("Variant mutated its base")
	}
	// Verbatim: an action outside the legal range is not clamped on the way.
	wild := []Action{{WindowMultiple: 1e9, WindowIncrement: math.Inf(-1), IntersendMs: 0}}
	if v, err := base.Variant([]int{0}, wild, []int{0}); err != nil {
		t.Fatal(err)
	} else if w, _ := v.Whisker(0); w.Action != wild[0] {
		t.Errorf("Variant altered the action it was given: %+v", w.Action)
	}

	// A split, or a decode, builds a new node array: not a variant.
	split := base.Clone()
	split.Split(1, Memory{})
	if _, shared := split.DiffFrom(base, nil); shared {
		t.Error("a split tree claims its source's node array")
	}
	if _, shared := DefaultWhiskerTree().DiffFrom(DefaultWhiskerTree(), nil); shared {
		t.Error("two separately built trees claim one node array")
	}
	for _, bad := range [][]int{{-1}, {base.NumWhiskers()}} {
		if _, err := base.Variant(bad, actions[:1], epochs[:1]); err == nil {
			t.Errorf("Variant accepted rule %v", bad)
		}
	}
	if _, err := base.Variant([]int{1, 2}, actions[:1], epochs[:2]); err == nil {
		t.Error("Variant accepted slices of different lengths")
	}
}

func TestWhiskerTreeCanonicalKey(t *testing.T) {
	a := DefaultWhiskerTree()
	b := DefaultWhiskerTree()
	if a.CanonicalKey() != b.CanonicalKey() {
		t.Error("identical trees must share a key")
	}
	// Epochs are invisible to the simulated sender and must not change the key.
	b.SetAllEpochs(7)
	if a.CanonicalKey() != b.CanonicalKey() {
		t.Error("epoch changes must not change the key")
	}
	// Action changes do.
	b.SetAction(0, Action{WindowMultiple: 2, WindowIncrement: 1, IntersendMs: 1})
	if a.CanonicalKey() == b.CanonicalKey() {
		t.Error("action change must change the key")
	}
	// Structure changes do.
	c := DefaultWhiskerTree()
	c.Split(0, Memory{100, 100, 2})
	if a.CanonicalKey() == c.CanonicalKey() {
		t.Error("split must change the key")
	}
	// Serialization round-trips preserve behaviour and therefore the key.
	data, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	var back WhiskerTree
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.CanonicalKey() != c.CanonicalKey() {
		t.Error("JSON round trip changed the key")
	}
}

// refCanonicalKey is the key's encoding written out plainly: the root domain,
// then the octree depth-first, 'N' and the split point for an inner node, 'L'
// and the action for a leaf, every value as its little-endian IEEE-754 bits.
func refCanonicalKey(t *WhiskerTree) string {
	var buf []byte
	f64 := func(v float64) { buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v)) }
	for axis := 0; axis < 3; axis++ {
		f64(t.domain.Lower.Axis(axis))
		f64(t.domain.Upper.Axis(axis))
	}
	var walk func(ni int32)
	walk = func(ni int32) {
		n := t.nodes[ni]
		if n.leaf >= 0 {
			a := t.whiskers[n.leaf].Action
			buf = append(buf, 'L')
			f64(a.WindowMultiple)
			f64(a.WindowIncrement)
			f64(a.IntersendMs)
			return
		}
		buf = append(buf, 'N')
		for axis := 0; axis < 3; axis++ {
			f64(n.split.Axis(axis))
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(0)
	return string(buf)
}

// TestCanonicalKeyEncodingAndAllocation pins the key's bytes to the plain
// encoding on trees of one, nine and many rules, and pins that building it
// takes one allocation.
func TestCanonicalKeyEncodingAndAllocation(t *testing.T) {
	deep := DefaultWhiskerTree()
	for deep.NumWhiskers() < 150 {
		for i := deep.NumWhiskers() - 1; i >= 0 && deep.NumWhiskers() < 150; i-- {
			w, err := deep.Whisker(i)
			if err != nil {
				t.Fatal(err)
			}
			if err := deep.Split(i, w.Domain.Midpoint()); err != nil {
				t.Fatal(err)
			}
		}
	}
	nine := DefaultWhiskerTree()
	if err := nine.Split(0, Memory{100, 100, 2}); err != nil {
		t.Fatal(err)
	}
	for _, tree := range []*WhiskerTree{DefaultWhiskerTree(), nine, deep} {
		if got, want := tree.CanonicalKey(), refCanonicalKey(tree); got != want {
			t.Errorf("%d rules: key is %d bytes, the plain encoding %d, or they differ", tree.NumWhiskers(), len(got), len(want))
		}
		if allocs := testing.AllocsPerRun(100, func() { _ = tree.CanonicalKey() }); allocs != 1 {
			t.Errorf("%d rules: CanonicalKey allocates %.0f times, want 1", tree.NumWhiskers(), allocs)
		}
	}
}

// touchRecorder additionally captures connection-start lookups.
type touchRecorder struct {
	recorder
	touches []int
}

func (r *touchRecorder) RecordTouch(idx int) { r.touches = append(r.touches, idx) }

func TestSenderRecordsTouches(t *testing.T) {
	tree := DefaultWhiskerTree()
	s := NewSender(tree)
	rec := &touchRecorder{}
	s.Recorder = rec
	// A connection (re)start looks up the rule for the zeroed memory and
	// must report it as a touch, not a use.
	s.Reset(0)
	if len(rec.touches) != 1 || rec.touches[0] != 0 {
		t.Fatalf("touches after Reset = %v", rec.touches)
	}
	if len(rec.uses) != 0 {
		t.Fatalf("Reset must not record a use, got %v", rec.uses)
	}
	// ACKs record uses, not touches.
	s.OnAck(ackEvent(100*sim.Millisecond, 0, 100*sim.Millisecond, 100*sim.Millisecond))
	if len(rec.uses) != 1 || len(rec.touches) != 1 {
		t.Fatalf("after one ack: uses=%v touches=%v", rec.uses, rec.touches)
	}
	// A recorder without the optional interface still works.
	s2 := NewSender(tree)
	plain := &recorder{}
	s2.Recorder = plain
	s2.Reset(0)
	if len(plain.uses) != 0 {
		t.Error("plain recorder must see no uses from Reset")
	}
}
