package netsim

import (
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// TestRecvWindowVsMap drives recvWindow and the map[int64]bool it replaced
// through the same randomized receive pattern — in-order delivery, bursts of
// reordering, duplicates, and connection restarts — and requires identical
// contents and identical cumulative-ack advances after every step.
func TestRecvWindowVsMap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var w recvWindow
	ref := map[int64]bool{}

	refAdvance := func(cum int64) int64 {
		for ref[cum] {
			delete(ref, cum)
			cum++
		}
		return cum
	}
	check := func(step int, cumAck, top int64) {
		t.Helper()
		if w.count != len(ref) {
			t.Fatalf("step %d: count=%d, map has %d", step, w.count, len(ref))
		}
		if w.empty() != (len(ref) == 0) {
			t.Fatalf("step %d: empty=%v, map len %d", step, w.empty(), len(ref))
		}
		for seq := range ref {
			if !w.has(seq) {
				t.Fatalf("step %d: has(%d)=false, map holds it", step, seq)
			}
		}
		for i := 0; i < 16; i++ {
			seq := cumAck + rng.Int63n(top-cumAck+8)
			if w.has(seq) != ref[seq] {
				t.Fatalf("step %d: has(%d)=%v, map says %v", step, seq, w.has(seq), ref[seq])
			}
		}
	}

	var cumAck int64
	top := int64(1) // exclusive upper bound of sequence numbers in flight
	for step := 0; step < 30000; step++ {
		if top <= cumAck {
			top = cumAck + 1
		}
		switch op := rng.Intn(10); {
		case op < 6: // a packet arrives somewhere in the window
			seq := cumAck + rng.Int63n(top-cumAck)
			if seq == cumAck && w.empty() {
				cumAck++
				refAdvance(cumAck) // no-op; keeps the shapes aligned
			} else if seq >= cumAck && !w.has(seq) {
				w.set(seq)
				ref[seq] = true
				got := w.advanceFrom(cumAck)
				want := refAdvance(cumAck)
				if got != want {
					t.Fatalf("step %d: advanceFrom(%d)=%d, map gives %d", step, cumAck, got, want)
				}
				cumAck = got
			}
			if seq >= top-1 {
				top = seq + 1 + rng.Int63n(64) // window slides on
			}
		case op < 7: // a long reorder burst lands far ahead
			seq := cumAck + 1 + rng.Int63n(600)
			if !w.has(seq) {
				w.set(seq)
				ref[seq] = true
			}
			if seq >= top {
				top = seq + 1
			}
		default: // duplicate of something already held
			if len(ref) > 0 {
				for seq := range ref {
					if w.has(seq) != true {
						t.Fatalf("step %d: duplicate probe has(%d)=false", step, seq)
					}
					break
				}
			}
		}
		if rng.Intn(997) == 0 { // connection restart
			w.clearAll()
			clear(ref)
			cumAck, top = 0, 1
		}
		check(step, cumAck, top)
	}
}

// TestRecvWindowWordRuns pins the word-at-a-time advance: a fully
// contiguous block of hundreds of sequence numbers collapses in one call.
func TestRecvWindowWordRuns(t *testing.T) {
	var w recvWindow
	const n = 500
	for seq := int64(1); seq <= n; seq++ { // leave 0 missing
		w.set(seq)
	}
	if got := w.advanceFrom(0); got != 0 {
		t.Fatalf("advanceFrom(0)=%d with seq 0 missing, want 0", got)
	}
	w.set(0)
	if got := w.advanceFrom(0); got != n+1 {
		t.Fatalf("advanceFrom(0)=%d, want %d", got, n+1)
	}
	if !w.empty() {
		t.Fatalf("window not empty after full advance: count=%d", w.count)
	}
}

// TestRecvWindowHasOutsideRange asks has about sequence numbers a whole ring
// span and more away from the held ones. Their ring slots alias the held
// words bit for bit, so only has's range guard can answer them: every such
// probe must be false, and every held number true.
func TestRecvWindowHasOutsideRange(t *testing.T) {
	var w recvWindow
	held := []int64{1000, 1003, 1064, 1100}
	for _, seq := range held {
		w.set(seq)
	}
	span := int64(64 * len(w.words))
	for _, seq := range held {
		if !w.has(seq) {
			t.Fatalf("has(%d) = false for a held number", seq)
		}
		for _, k := range []int64{-3, -2, -1, 1, 2, 3} {
			if probe := seq + k*span; w.has(probe) {
				t.Errorf("has(%d) = true: %d rings from held %d, outside [%d, %d]", probe, k, seq, w.lo, w.hi)
			}
		}
	}
	var empty recvWindow
	if empty.has(0) || empty.has(1000) {
		t.Error("an empty window holds a number")
	}
}

// recvOps is a receiver's arrival stream for a window, in connections: each
// (after the first) starts with a restart, marked by a negative entry; a run
// of numbers far ahead arrives first, farther than the ring the connections
// before grew spans, so the cumulative ack lags a ring's span and more behind
// them (advanceFrom's flaw); then come the connection's numbers from zero,
// some lost.
func recvOps(seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	var ops []int64
	for far := int64(300); far < 40000; far *= 2 {
		if len(ops) > 0 {
			ops = append(ops, -1)
		}
		for seq, end := far, far+64+rng.Int63n(400); seq < end; seq++ {
			ops = append(ops, seq)
		}
		for seq := int64(0); seq < far+600; seq++ {
			if rng.Intn(20) != 0 {
				ops = append(ops, seq)
			}
		}
	}
	return ops
}

// replayRecv feeds ops to w as a receiver does and returns the cumulative
// ack and ring size after each.
func replayRecv(w *recvWindow, ops []int64, trace []int64) []int64 {
	trace = trace[:0]
	var cum int64
	for _, seq := range ops {
		switch {
		case seq < 0:
			w.clearAll()
			cum = 0
		case seq >= cum && !w.has(seq):
			w.set(seq)
			cum = w.advanceFrom(cum)
		}
		trace = append(trace, cum, int64(len(w.words)))
	}
	return trace
}

// TestRenewedRecvWindowMatchesNew holds renew to its contract: whatever a
// window served before, a renewed one acknowledges what a new one does and
// passes through the same ring sizes — advanceFrom's flaw included, whose
// outcome depends on them — and, once it has grown that far before, it does
// so without allocating.
func TestRenewedRecvWindowMatchesNew(t *testing.T) {
	ops := recvOps(7)
	var fresh recvWindow
	want := replayRecv(&fresh, ops, nil)
	if n := want[len(want)-1]; n <= recvWindowMinWords {
		t.Fatalf("the stream never grew the ring (%d words)", n)
	}
	var w recvWindow
	replayRecv(&w, recvOps(8), nil) // another flow, grown its own way
	var got []int64
	for round := 0; round < 2; round++ {
		w.renew()
		got = replayRecv(&w, ops, got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d, op %d (%d): renewed window gives %d, a new one %d (even: cumulative ack, odd: ring words)",
					round, i/2, ops[i/2], got[i], want[i])
			}
		}
	}
	allocs := testing.AllocsPerRun(5, func() {
		w.renew()
		got = replayRecv(&w, ops, got)
	})
	if allocs != 0 {
		t.Errorf("a renewed window regrowing allocates %.1f objects, want 0", allocs)
	}
}

// TestReattachAfterResetRenewsReceiver: a port reattached within a run keeps
// the window ring its receiver grew, as it always has, but one reattached
// after Network.Reset — the next run — starts from a new receiver's, so a
// run of a reset network acknowledges what a run of a new one does.
func TestReattachAfterResetRenewsReceiver(t *testing.T) {
	engine := sim.NewEngine()
	n, err := NewGraph(engine, GraphConfig{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := n.AddLink(LinkConfig{Name: "l", RateBps: 10e6, Delay: sim.Millisecond, Queue: &benchQueue{}})
	if err != nil {
		t.Fatal(err)
	}
	route := []*Link{l}
	p, err := n.AttachFlowRoute(SenderFunc(func(Ack, sim.Time) {}), route, nil, sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	rx := &p.receiver.received
	rx.set(1)
	rx.set(5000)
	grown := len(rx.words)
	if grown <= recvWindowMinWords {
		t.Fatalf("ring of %d words did not grow", grown)
	}
	if err := n.DetachFlow(p); err != nil {
		t.Fatal(err)
	}
	if err := n.ReattachFlowRoute(p, route, nil, sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(rx.words) != grown || !rx.empty() {
		t.Fatalf("reattached within the run: %d words, %d held; want the %d-word ring, empty", len(rx.words), rx.count, grown)
	}
	n.Reset()
	if err := n.ReattachFlowRoute(p, route, nil, sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(rx.words) != 0 {
		t.Errorf("reattached after Reset: %d-word ring, want a new receiver's (none until its first set)", len(rx.words))
	}
}
