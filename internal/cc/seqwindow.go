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
			w.resize(seqWindowMinSize) // zero: see renew
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

// renew empties the window and gives it back the ring a new window starts
// with: a new window's first put sizes its ring to seqWindowMinSize, zero,
// and so does a renewed one's, out of the backing array an earlier flow grew.
// grow extends into that array's capacity too, so a renewed window passes
// through the rings a new one would without allocating them.
func (w *seqWindow) renew() {
	*w = seqWindow{recs: w.recs[:0]}
}

// grow reindexes the live records into a ring large enough for span slots:
// the old ring extended, in its backing array when that has the capacity and
// copied into a new one otherwise, with the extension zero. A live record
// then either keeps its slot or moves up into the extension, where no record
// is yet, so the records move in place.
func (w *seqWindow) grow(span int64) {
	old := w.recs
	n := len(old) * 2
	for int64(n) < span {
		n *= 2
	}
	if n <= cap(old) {
		w.recs = old[:n]
		clear(w.recs[len(old):])
	} else {
		w.recs = make([]sentRecord, n)
		copy(w.recs, old)
	}
	mask, oldMask := n-1, len(old)-1
	for seq := w.lo; seq < w.hi; seq++ {
		from, to := int(seq)&oldMask, int(seq)&mask
		if to != from && w.recs[from].live {
			w.recs[to], w.recs[from] = w.recs[from], sentRecord{}
		}
	}
}

// resize makes the ring n zero records, out of its backing array when that
// has the capacity.
func (w *seqWindow) resize(n int) {
	if n <= cap(w.recs) {
		w.recs = w.recs[:n]
		clear(w.recs)
	} else {
		w.recs = make([]sentRecord, n)
	}
}
