package cc

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/sim"
)

// refPresumedLost is the presumed-lost scan as it was before the send-order
// scan replaced it, kept as the reference the differential tests hold
// queuePresumedLost to: one ascending walk from the window's floor to
// highestAcked-3 that selects every live, unqueued record last sent at least
// a smoothed RTT ago. It changes nothing.
func refPresumedLost(t *Transport, now sim.Time) []int64 {
	staleAfter := t.srtt
	if staleAfter <= 0 {
		staleAfter = t.rto
	}
	var lost []int64
	for seq := t.outstanding.floor(); seq+3 <= t.highestAcked; seq++ {
		rec, ok := t.outstanding.get(seq)
		if !ok || rec.queued || now-rec.sentAt < staleAfter {
			continue
		}
		lost = append(lost, seq)
	}
	return lost
}

// LossScanWatch compares every presumed-lost scan made while it is installed
// with refPresumedLost and counts the cases the send-order scan exists for.
// The hook it installs is package-wide, so tests that use it must not run in
// parallel with each other, and the simulations they watch must run on one
// goroutine at a time.
type LossScanWatch struct {
	tb testing.TB

	Scans          int   // scans compared with the reference
	Queued         int64 // sequence numbers those scans queued
	Visits         int64 // log entries and window slots those scans examined
	RequeuedLost   int   // retransmitted records a scan queued again
	FreshResends   int   // live log entries a scan left alone because they were still fresh
	KeptAbove      int   // stale log entries kept because they were above the bound
	Superseded     int   // stale log entries dropped because the record was re-sent since
	BoundPastNext  int   // scans whose bound highestAcked-3 was at or above nextSeq
	QueuedPastNext int64 // sequence numbers those scans queued
	Diverged       int   // scans that did not queue what the reference selects
}

// WatchLossScans installs the watch until Stop, or the end of the test.
func WatchLossScans(tb testing.TB) *LossScanWatch {
	tb.Helper()
	if testHookLossScan != nil {
		tb.Fatal("a loss-scan watch is already installed")
	}
	w := &LossScanWatch{tb: tb}
	testHookLossScan = w.scan
	tb.Cleanup(w.Stop)
	return w
}

// Stop removes the watch; its counters stay readable.
func (w *LossScanWatch) Stop() { testHookLossScan = nil }

func (w *LossScanWatch) scan(t *Transport, now sim.Time) func() {
	want := refPresumedLost(t, now)
	staleAfter := t.srtt
	if staleAfter <= 0 {
		staleAfter = t.rto
	}
	bound := t.highestAcked - 3
	pastNext := bound >= t.nextSeq
	if pastNext {
		bound = t.nextSeq - 1
	}
	for _, seq := range want {
		if rec, _ := t.outstanding.get(seq); rec.retransmitted {
			w.RequeuedLost++
		}
	}
	for _, e := range t.resends[t.resendHead:] {
		rec, ok := t.outstanding.get(e.seq)
		current := ok && !rec.queued && rec.sentAt == e.at
		switch {
		case now-e.at < staleAfter:
			if current {
				w.FreshResends++
			}
			continue
		case current && e.seq > bound:
			w.KeptAbove++
		case ok && !rec.queued && rec.sentAt != e.at:
			w.Superseded++
		}
		w.Visits++
	}
	from := max(t.firstCursor, t.outstanding.floor())
	state := fmt.Sprintf("now=%v cumAck=%d nextSeq=%d highestAcked=%d floor=%d cursor=%d log=%d",
		now, t.cumAck, t.nextSeq, t.highestAcked, t.outstanding.floor(), t.firstCursor, len(t.resends)-t.resendHead)
	queuedBefore := t.retransmitQueue.Len()

	return func() {
		// What the scan pushed is the queue's new tail; a ring only shows its
		// head, so take everything out and put it back.
		all := make([]int64, 0, t.retransmitQueue.Len())
		for t.retransmitQueue.Len() > 0 {
			all = append(all, t.retransmitQueue.Pop())
		}
		for _, seq := range all {
			t.retransmitQueue.Push(seq)
		}
		got := all[queuedBefore:]

		w.Scans++
		w.Queued += int64(len(got))
		if t.firstCursor > from {
			w.Visits += t.firstCursor - from
		}
		if t.firstCursor <= bound {
			w.Visits++ // the fresh record the cursor stopped at
		}
		if pastNext {
			w.BoundPastNext++
			w.QueuedPastNext += int64(len(got))
		}
		if !slices.Equal(got, want) {
			w.Diverged++
			if w.Diverged <= 3 {
				w.tb.Errorf("loss scan queued %v, the full rescan selects %v (%s)", got, want, state)
			}
		}
	}
}

// ForceLossScan runs the presumed-lost scan on t outside OnAck, which only
// scans on the third duplicate ACK and on partial ACKs. The scan's contract
// is to equal the full rescan whenever it runs; scans between ACKs hold it to
// that in states OnAck's own call sites never present: a log entry
// superseded by a re-send, or one left above the bound.
func ForceLossScan(t *Transport, now sim.Time) {
	if t.active {
		t.queuePresumedLost(now)
	}
}
