package cc

// seqWindow stores the sentRecord for every outstanding sequence number. It
// replaces a map[int64]sentRecord on the transport's per-packet hot path:
// outstanding sequence numbers are dense — every key lies in the current
// send window [cumAck, nextSeq) — so a power-of-two ring indexed by
// seq&(len-1) answers get/put/delete with two compares and a mask instead of
// a hash, and iterating the window in sequence order is a plain loop rather
// than a map walk plus sort.
//
// Invariants: every live record's sequence number lies in [lo, hi), and
// hi-lo never exceeds len(recs), so no two live sequence numbers share a
// slot. Slots outside the live set are fully zeroed (live == false), which
// lets the bounds extend over them without clearing.
type seqWindow struct {
	// recs is a power-of-two ring; recs[seq&(len-1)] holds seq's record,
	// with the live flag marking occupancy.
	recs  []sentRecord
	lo    int64 // inclusive: no live sequence number is below lo
	hi    int64 // exclusive: no live sequence number is at or above hi
	count int
	// first is the first-size ring the window allocated, kept once the
	// window has grown past it so that renew can go back to it.
	first []sentRecord
}

// seqWindowMinSize is the initial ring size; it covers a typical congestion
// window without growth while staying one cache-friendly kilobyte-scale slab.
const seqWindowMinSize = 64

// Len returns the number of live records.
func (w *seqWindow) Len() int { return w.count }

// floor returns a lower bound on every live sequence number: an ascending
// scan from floor visits all records, in order.
func (w *seqWindow) floor() int64 { return w.lo }

// get returns seq's record, if live.
//
//repo:hotpath per-packet record lookup
func (w *seqWindow) get(seq int64) (sentRecord, bool) {
	if seq < w.lo || seq >= w.hi {
		return sentRecord{}, false
	}
	rec := w.recs[int(seq)&(len(w.recs)-1)]
	if !rec.live {
		return sentRecord{}, false
	}
	return rec, true
}

// put inserts or replaces seq's record.
//
//repo:hotpath per-packet record store
func (w *seqWindow) put(seq int64, rec sentRecord) {
	rec.live = true
	if w.count == 0 {
		if len(w.recs) == 0 {
			w.recs = make([]sentRecord, seqWindowMinSize)
			w.first = w.recs
		}
		w.lo, w.hi = seq, seq+1
	} else {
		lo, hi := w.lo, w.hi
		if seq < lo {
			lo = seq
		}
		if seq >= hi {
			hi = seq + 1
		}
		if hi-lo > int64(len(w.recs)) {
			w.grow(hi - lo)
		}
		w.lo, w.hi = lo, hi
	}
	slot := &w.recs[int(seq)&(len(w.recs)-1)]
	if !slot.live {
		w.count++
	}
	*slot = rec
}

// del removes seq's record, if live.
//
//repo:hotpath per-ack record removal
func (w *seqWindow) del(seq int64) {
	if seq < w.lo || seq >= w.hi {
		return
	}
	slot := &w.recs[int(seq)&(len(w.recs)-1)]
	if slot.live {
		*slot = sentRecord{}
		w.count--
	}
}

// forgetBelow advances the lower bound across dead slots, up to floor (the
// cumulative ack), keeping the occupied span — and therefore ring growth —
// proportional to the live window rather than to total sequence progress. It
// stops at the first live record: sequence numbers below the cumulative ack
// can legitimately be outstanding (after a go-back-N timeout rewinds nextSeq
// and a late cumulative ack then overtakes it), so the bound may only skip
// slots known to be empty. The walk is amortized O(1) per acked packet: lo
// is monotone within a flow incarnation.
//
//repo:hotpath per-ack window floor advance
func (w *seqWindow) forgetBelow(floor int64) {
	if floor > w.hi {
		floor = w.hi
	}
	mask := len(w.recs) - 1
	for w.lo < floor && !w.recs[int(w.lo)&mask].live {
		w.lo++
	}
	if w.hi < w.lo {
		w.hi = w.lo
	}
}

// clearAll removes every record but keeps the ring's capacity, so a pooled
// transport's next flow incarnation starts allocation-free. Only the occupied
// span [lo, hi) is cleared — slots outside it are zero already — which matters
// once a ring has grown to tens of thousands of records around an old hole.
func (w *seqWindow) clearAll() {
	if w.count != 0 {
		from := int(w.lo) & (len(w.recs) - 1)
		if to := from + int(w.hi-w.lo); to <= len(w.recs) {
			clear(w.recs[from:to])
		} else { // the span wraps around the ring's end
			clear(w.recs[from:])
			clear(w.recs[:to-len(w.recs)])
		}
		w.count = 0
	}
	w.lo, w.hi = 0, 0
}

// renew empties the window for a new flow. A ring grown past the first size
// is dropped — the flow it was grown for has gone with its world — and the
// window goes back to its first ring, so whatever it served before, a renewed
// window allocates exactly what a new one allocates less that first ring.
func (w *seqWindow) renew() {
	if len(w.recs) > seqWindowMinSize {
		clear(w.first) // grow left the records it copied behind
		*w = seqWindow{recs: w.first, first: w.first}
		return
	}
	w.clearAll()
}

// grow reindexes the live records into a ring large enough for span slots.
func (w *seqWindow) grow(span int64) {
	n := len(w.recs) * 2
	if n == 0 {
		n = seqWindowMinSize
	}
	for int64(n) < span {
		n *= 2
	}
	recs := make([]sentRecord, n)
	oldMask := len(w.recs) - 1
	mask := n - 1
	for seq := w.lo; seq < w.hi; seq++ {
		if r := w.recs[int(seq)&oldMask]; r.live {
			recs[int(seq)&mask] = r
		}
	}
	w.recs = recs
}
