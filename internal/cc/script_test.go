package cc_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/aqm"
	"repro/internal/cc"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// scriptedQueue is a deep drop-tail queue that first drops whatever
// transmissions its script names, so a test decides exactly which packets —
// and which retransmissions of them — are lost.
type scriptedQueue struct {
	*aqm.DropTail
	drop func(p *netsim.Packet) bool
}

func (q *scriptedQueue) Enqueue(p *netsim.Packet, now sim.Time) bool {
	if q.drop(p) {
		return false
	}
	return q.DropTail.Enqueue(p, now)
}

// dropArrivals returns a script that drops the listed arrivals of each
// sequence number at the queue: 1 is a packet's first transmission, 2 the
// next copy of it to arrive (a retransmission, or the go-back-N re-send after
// a timeout), and so on.
func dropArrivals(script map[int64][]int) func(*netsim.Packet) bool {
	arrivals := make(map[int64]int)
	return func(p *netsim.Packet) bool {
		arrivals[p.Seq]++
		for _, nth := range script[p.Seq] {
			if nth == arrivals[p.Seq] {
				return true
			}
		}
		return false
	}
}

// scriptedWorld is one flow with a fixed window over a link whose queue
// follows a drop script.
type scriptedWorld struct {
	eng   *sim.Engine
	algo  *fixedWindow
	tr    *cc.Transport
	net   *netsim.Network
	sends strings.Builder // one line per transmission: time, seq, R for a retransmission
}

func newScriptedWorld(t testing.TB, rateBps, window float64, gap, oneWay sim.Time, drop func(*netsim.Packet) bool) *scriptedWorld {
	t.Helper()
	w := &scriptedWorld{eng: sim.NewEngine(), algo: &fixedWindow{window: window, gap: gap}}
	queue := &scriptedQueue{DropTail: aqm.MustDropTail(1 << 20), drop: drop}
	net, err := netsim.NewNetwork(w.eng, netsim.Config{Queue: queue, LinkRateBps: rateBps})
	if err != nil {
		t.Fatal(err)
	}
	port, err := net.AttachFlow(netsim.SenderFunc(func(a netsim.Ack, now sim.Time) { w.tr.OnAck(a, now) }), oneWay)
	if err != nil {
		t.Fatal(err)
	}
	if w.tr, err = cc.NewTransport(w.eng, port, w.algo, netsim.MTU); err != nil {
		t.Fatal(err)
	}
	w.net = net
	net.Start(0)
	return w
}

// run plays the world for two simulated seconds.
func (w *scriptedWorld) run() {
	w.tr.StartFlow(0)
	w.eng.Run(2 * sim.Second)
}

// logSends records every transmission in w.sends.
func (w *scriptedWorld) logSends() {
	w.tr.OnSend = func(p *netsim.Packet, now sim.Time) {
		kind := ""
		if p.Retransmit {
			kind = " R"
		}
		fmt.Fprintf(&w.sends, "%d %d%s\n", int64(now), p.Seq, kind)
	}
}

// record is the send log followed by the final counters: what the scripted
// tests require byte-equal to the files recorded before the scan changed.
func (w *scriptedWorld) record() string {
	return w.sends.String() + fmt.Sprintf("%+v\n", w.tr.Stats())
}

var recordSendLogs = flag.Bool("record-sendlogs", false,
	"rewrite testdata/*.sendlog from this build; only meaningful at a commit whose loss recovery is the expectation")

// checkSendLog compares got with testdata/<name>.sendlog. The files were
// recorded with the full rescan in place (-record-sendlogs at the parent of
// the send-order scan), not derived by hand.
func checkSendLog(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".sendlog")
	if *recordSendLogs {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range gotLines {
		if i >= len(wantLines) || gotLines[i] != wantLines[i] {
			wantLine := "<end of file>"
			if i < len(wantLines) {
				wantLine = wantLines[i]
			}
			t.Fatalf("%s differs at line %d: got %q, recorded %q", path, i+1, gotLines[i], wantLine)
		}
	}
	t.Fatalf("%s: got %d lines, recorded %d", path, len(gotLines), len(wantLines))
}

// retransmissionsOf returns the times at which seq was sent as a
// retransmission, from a send log.
func retransmissionsOf(sends string, seq int64) []int64 {
	var at []int64
	for _, line := range strings.Split(sends, "\n") {
		var now, s int64
		var kind string
		if n, _ := fmt.Sscan(line, &now, &s, &kind); n == 3 && s == seq && kind == "R" {
			at = append(at, now)
		}
	}
	return at
}

// TestLostRetransmissionIsRequeued: twenty holes in one window, and the first
// retransmission of a middle one (151) is lost as well. The retransmissions
// leave in one batch; the partial ACKs that the first of them bring back scan
// while 151's retransmission is still fresh (the log's walk must stop short
// of it) and then, one packet time later, when it has gone stale: that scan
// must queue it again. A cursor over first transmissions alone never looks at
// 151 again, and nothing but the retransmission timer would repair it.
func TestLostRetransmissionIsRequeued(t *testing.T) {
	watch := cc.WatchLossScans(t)
	script := make(map[int64][]int)
	for seq := int64(100); seq < 160; seq += 3 {
		script[seq] = []int{1}
	}
	script[151] = []int{1, 2}
	w := newScriptedWorld(t, 10e6, 60, 0, 20*sim.Millisecond, dropArrivals(script))
	w.logSends()
	w.run()

	checkSendLog(t, "lost_retransmission", w.record())
	if st := w.tr.Stats(); st.Timeouts != 0 {
		t.Errorf("%d timeouts; the scan, not the timer, has to repair the lost retransmission", st.Timeouts)
	}
	if at := retransmissionsOf(w.sends.String(), 151); len(at) < 2 {
		t.Errorf("seq 151 was retransmitted at %v, want at least twice", at)
	}
	if watch.RequeuedLost == 0 || watch.FreshResends == 0 {
		t.Errorf("scans queued %d retransmitted records again and left %d fresh ones alone, want both to have happened", watch.RequeuedLost, watch.FreshResends)
	}
}

// TestScanAfterRewindSeesNewData: a window of 120 loses every other packet of
// 50..112 (50 three times over), a burst at 214..234 and every other packet
// of 245..307; at 0.4 s the window collapses to 8 and the link blacks out for
// 0.3 s, so the ACK clock stops and the retransmission timer fires mid-outage.
// Its go-back-N rewind leaves highestAcked (418) far above nextSeq, and the
// scans that follow — the bound at or above nextSeq in dozens of them — must
// stop their cursor at nextSeq: the data sent past it afterwards has holes of
// its own, which a cursor that had run on to the bound would never look at.
func TestScanAfterRewindSeesNewData(t *testing.T) {
	watch := cc.WatchLossScans(t)
	p := lossProgram{
		window:  120,
		oneWay:  20 * sim.Millisecond,
		drops:   make(map[int64][]int),
		outages: outages{{start: 400 * sim.Millisecond, end: 700 * sim.Millisecond}},
		windows: []windowChange{{at: 400 * sim.Millisecond, window: 8}, {at: 960 * sim.Millisecond, window: 41}},
	}
	for seq := int64(50); seq <= 112; seq += 2 {
		p.drops[seq] = []int{1}
	}
	p.drops[50] = []int{1, 2, 3}
	for seq := int64(214); seq <= 234; seq++ {
		p.drops[seq] = []int{1}
	}
	p.drops[222] = []int{1, 2}
	for seq := int64(245); seq <= 307; seq += 2 {
		p.drops[seq] = []int{1}
	}
	w := p.world(t)
	w.logSends()
	w.run()

	checkSendLog(t, "scan_after_rewind", w.record())
	if st := w.tr.Stats(); st.Timeouts == 0 {
		t.Error("no timeout, so no rewind")
	}
	if watch.BoundPastNext == 0 || watch.QueuedPastNext == 0 {
		t.Errorf("%d scans had their bound at or above nextSeq and queued %d packets, want both to have happened", watch.BoundPastNext, watch.QueuedPastNext)
	}
}
