package cc

import (
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// TestSeqWindowVsMap drives seqWindow and a plain map[int64]sentRecord
// through the same randomized operation stream — shaped like transport
// traffic: a sliding sequence window with inserts at the top, cumulative
// deletes at the bottom, scattered individual deletes, and occasional full
// clears — and requires identical contents after every step. seqWindow is
// the transport's hot-path replacement for that map, so any divergence here
// is a correctness bug, not a performance detail.
func TestSeqWindowVsMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var w seqWindow
	ref := map[int64]sentRecord{}

	check := func(step int, lo, hi int64) {
		t.Helper()
		if w.Len() != len(ref) {
			t.Fatalf("step %d: Len=%d, map has %d", step, w.Len(), len(ref))
		}
		// Every map entry must be present and equal; with matching counts,
		// that also rules out phantom live records in the window.
		for seq, want := range ref {
			got, ok := w.get(seq)
			if !ok {
				t.Fatalf("step %d: get(%d) absent, map has %+v", step, seq, want)
			}
			if got.sentAt != want.sentAt || got.retransmitted != want.retransmitted || got.queued != want.queued {
				t.Fatalf("step %d: get(%d)=%+v, map has %+v", step, seq, got, want)
			}
			if seq < w.floor() {
				t.Fatalf("step %d: live seq %d below floor %d", step, seq, w.floor())
			}
		}
		// Probe the window edges for spurious presence.
		for seq := lo - 4; seq < lo+4; seq++ {
			if _, ok := w.get(seq); ok != mapHas(ref, seq) {
				t.Fatalf("step %d: get(%d) live=%v, map live=%v", step, seq, ok, mapHas(ref, seq))
			}
		}
		for seq := hi - 4; seq < hi+4; seq++ {
			if _, ok := w.get(seq); ok != mapHas(ref, seq) {
				t.Fatalf("step %d: get(%d) live=%v, map live=%v", step, seq, ok, mapHas(ref, seq))
			}
		}
	}

	var cumAck, nextSeq int64
	for step := 0; step < 20000; step++ {
		switch op := rng.Intn(10); {
		case op < 4: // send new data
			rec := sentRecord{sentAt: sim.Time(step), retransmitted: rng.Intn(4) == 0}
			w.put(nextSeq, rec)
			rec.live = true
			ref[nextSeq] = rec
			nextSeq++
		case op < 6: // cumulative ack advance
			if cumAck < nextSeq {
				adv := int64(rng.Intn(8) + 1)
				if cumAck+adv > nextSeq {
					adv = nextSeq - cumAck
				}
				for seq := cumAck; seq < cumAck+adv; seq++ {
					w.del(seq)
					delete(ref, seq)
				}
				cumAck += adv
				w.forgetBelow(cumAck)
			}
		case op < 8: // selective ack: delete a random in-window seq
			if cumAck < nextSeq {
				seq := cumAck + rng.Int63n(nextSeq-cumAck)
				w.del(seq)
				delete(ref, seq)
			}
		case op == 8 && rng.Intn(2) == 0: // go-back-N straggler: resend below cumAck
			// After a timeout rewinds nextSeq and a late cumulative ack then
			// overtakes it, the transport sends new data with seq < cumAck;
			// the window must accept records below its advanced floor.
			if cumAck > 0 {
				seq := cumAck - rng.Int63n(min(cumAck, 6)) - 1
				if seq >= 0 {
					rec := sentRecord{sentAt: sim.Time(step)}
					w.put(seq, rec)
					rec.live = true
					ref[seq] = rec
				}
			}
		case op < 9: // mark a record queued/retransmitted in place
			if cumAck < nextSeq {
				seq := cumAck + rng.Int63n(nextSeq-cumAck)
				if rec, ok := w.get(seq); ok {
					rec.queued = true
					w.put(seq, rec)
					rec.live = true
					ref[seq] = rec
				}
			}
		default: // timeout or flow restart
			w.clearAll()
			clear(ref)
			if rng.Intn(3) == 0 {
				cumAck, nextSeq = 0, 0 // StartFlow: sequence space restarts
			} else {
				nextSeq = cumAck // go-back-N
			}
		}
		check(step, cumAck, nextSeq)
	}
}

func mapHas(m map[int64]sentRecord, seq int64) bool {
	_, ok := m[seq]
	return ok
}

// TestSeqWindowGrowth pins that a window spanning far more than the initial
// ring size grows without losing or aliasing records.
func TestSeqWindowGrowth(t *testing.T) {
	var w seqWindow
	const n = 10 * seqWindowMinSize
	for seq := int64(0); seq < n; seq++ {
		w.put(seq, sentRecord{sentAt: sim.Time(seq)})
	}
	if w.Len() != n {
		t.Fatalf("Len=%d after %d puts", w.Len(), n)
	}
	for seq := int64(0); seq < n; seq++ {
		rec, ok := w.get(seq)
		if !ok || rec.sentAt != sim.Time(seq) {
			t.Fatalf("get(%d) = %+v, %v after growth", seq, rec, ok)
		}
	}
}

// TestSeqWindowClearAllSpan pins clearAll's contract on the spans it has to
// tell apart: it clears [lo, hi) only, in two pieces when the span wraps, and
// must leave every slot of the ring zero — the invariant put and get rely on —
// so that a record from before the clear can never resurface.
func TestSeqWindowClearAllSpan(t *testing.T) {
	const n = seqWindowMinSize
	for _, c := range []struct {
		name     string
		lo, hi   int64 // records put at every seq in [lo, hi)
		del      func(seq int64) bool
		wantLive int
	}{
		{"span inside the ring", 5, 20, nil, 15},
		{"span wrapping the ring's end", n - 10, n + 25, nil, 35},
		{"span wrapping, far along the sequence space", 1000*n + n - 3, 1000*n + n + 3, nil, 6},
		{"span equal to the ring", 7, 7 + n, nil, n},
		{"span equal to the ring, holes inside", 7, 7 + n, func(seq int64) bool { return seq%3 == 0 }, n - 21},
		{"every record dead, count zero", n - 10, n + 25, func(int64) bool { return true }, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			var w seqWindow
			for seq := c.lo; seq < c.hi; seq++ {
				w.put(seq, sentRecord{sentAt: sim.Time(seq), queued: true})
			}
			for seq := c.lo; seq < c.hi; seq++ {
				if c.del != nil && c.del(seq) {
					w.del(seq)
				}
			}
			if len(w.recs) != n || w.Len() != c.wantLive {
				t.Fatalf("ring of %d holds %d records, want %d and %d", len(w.recs), w.Len(), n, c.wantLive)
			}
			w.clearAll()
			if w.Len() != 0 || w.lo != 0 || w.hi != 0 {
				t.Errorf("after clearAll: Len=%d lo=%d hi=%d", w.Len(), w.lo, w.hi)
			}
			for i, rec := range w.recs {
				if rec != (sentRecord{}) {
					t.Fatalf("slot %d still holds %+v after clearAll", i, rec)
				}
			}
			// The next incarnation starts anywhere and sees none of the old one.
			w.put(c.hi-1, sentRecord{sentAt: 1})
			for seq := c.lo - 2; seq < c.hi+2; seq++ {
				if _, ok := w.get(seq); ok != (seq == c.hi-1) {
					t.Errorf("after clearAll and one put at %d: get(%d) live=%v", c.hi-1, seq, ok)
				}
			}
		})
	}
}
