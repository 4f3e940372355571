package cc_test

import (
	"testing"

	"repro/internal/cc"
	"repro/internal/sim"
)

// outages is a netsim.FaultInjector of full blackouts, nothing else.
type outages []outageInjector

func (o outages) Outage(now sim.Time) (bool, sim.Time) {
	for _, w := range o {
		if down, until := w.Outage(now); down {
			return true, until
		}
	}
	return false, 0
}
func (o outages) RateScale(sim.Time) float64   { return 1 }
func (o outages) ExtraDelay(sim.Time) sim.Time { return 0 }
func (o outages) DropDelivered(sim.Time) bool  { return false }

// lossProgram is a one-flow 10 Mbps world decoded from fuzz bytes: three
// header bytes (window, pacing gap, one-way delay) and then three-byte ops
// that place drop bursts and combs along the sequence space, drop further
// copies of packets already dropped, black the link out, change the window
// mid-run, or call the scan at times OnAck never would.
type lossProgram struct {
	window      float64
	gap, oneWay sim.Time
	drops       map[int64][]int
	outages     outages
	windows     []windowChange
	forceEvery  sim.Time
}

type windowChange struct {
	at     sim.Time
	window float64
}

const maxLossOps = 48

func decodeLossProgram(data []byte) lossProgram {
	var hdr [3]byte
	copy(hdr[:], data)
	p := lossProgram{
		window: float64(4 + int(hdr[0])%124),
		gap:    sim.Time(hdr[1]%8) * 300 * sim.Microsecond,
		oneWay: sim.Time(2+hdr[2]%32) * sim.Millisecond,
		drops:  make(map[int64][]int),
	}
	if len(data) > 3 {
		data = data[3:]
	} else {
		data = nil
	}
	var dropped []int64 // sequence numbers with a scripted drop, in script order
	dropFirst := func(seq int64) {
		if len(p.drops[seq]) == 0 {
			p.drops[seq] = []int{1}
			dropped = append(dropped, seq)
		}
	}
	pos, clock := int64(20), sim.Time(0)
	for op := 0; op+3 <= len(data) && op < 3*maxLossOps; op += 3 {
		kind, a, b := data[op]%6, int64(data[op+1]), int64(data[op+2])
		switch kind {
		case 0: // a burst of consecutive first transmissions
			pos += a
			for n := b%48 + 1; n > 0; n-- {
				dropFirst(pos)
				pos++
			}
		case 1: // every other first transmission
			pos += a
			for n := b%32 + 1; n > 0; n-- {
				dropFirst(pos)
				pos += 2
			}
		case 2: // the next copy of a packet already dropped
			if len(dropped) > 0 {
				seq := dropped[int(a)%len(dropped)]
				if n := len(p.drops[seq]); n < 4 {
					p.drops[seq] = append(p.drops[seq], n+1)
				}
			}
		case 3: // an outage
			clock += sim.Time(a) * 4 * sim.Millisecond
			end := clock + sim.Time(b+1)*4*sim.Millisecond
			p.outages = append(p.outages, outageInjector{start: clock, end: end})
			clock = end
		case 4: // a window change
			p.windows = append(p.windows, windowChange{at: sim.Time(a) * 8 * sim.Millisecond, window: float64(1 + b%64)})
		case 5: // scans between ACKs
			p.forceEvery = sim.Time(1+a%32) * 500 * sim.Microsecond
		}
	}
	return p
}

// world builds the program's world, ready to run.
func (p lossProgram) world(t testing.TB) *scriptedWorld {
	w := newScriptedWorld(t, 10e6, p.window, p.gap, p.oneWay, dropArrivals(p.drops))
	if len(p.outages) > 0 {
		w.net.Links()[0].SetFaults(p.outages)
	}
	for _, c := range p.windows {
		window := c.window
		w.eng.Schedule(c.at, func(sim.Time) { w.algo.window = window })
	}
	if p.forceEvery > 0 {
		var tick func(now sim.Time)
		tick = func(now sim.Time) {
			cc.ForceLossScan(w.tr, now)
			w.eng.Schedule(now+p.forceEvery, tick)
		}
		w.eng.Schedule(p.forceEvery, tick)
	}
	return w
}

// lossProgramSeeds are shaped after lossScanWorlds: (dc) a window of over a
// hundred packets losing bursts of dozens, retransmissions among them;
// (churn) a window several times the path's capacity, so a deep standing
// queue, collapsed mid-recovery until the timer fires; (outage) combs of
// single drops around two blackouts; (trace) a paced sender whose window
// swings. The last three add scans between ACKs; the very last is the
// fuzzer's own find, a paced sender that loses 41 packets in a row and is
// scanned every 8.5 ms, which leaves a stale log entry above the bound.
var lossProgramSeeds = [][]byte{
	{123, 0, 2, 0, 40, 47, 2, 3, 0, 2, 17, 0, 0, 30, 30, 2, 60, 0, 0, 90, 47, 2, 100, 0},
	{116, 0, 18, 1, 30, 31, 2, 0, 0, 2, 0, 0, 4, 50, 7, 0, 100, 20, 2, 40, 0, 1, 10, 31, 4, 120, 40},
	{40, 0, 18, 1, 80, 31, 3, 100, 150, 1, 4, 31, 2, 35, 0, 3, 50, 60, 0, 20, 5},
	{60, 3, 23, 4, 20, 7, 0, 90, 10, 4, 60, 63, 1, 30, 20, 2, 5, 0, 4, 110, 3, 0, 200, 30},
	{80, 0, 18, 1, 60, 31, 2, 0, 0, 2, 3, 0, 5, 3, 0, 0, 20, 12},
	{30, 1, 8, 0, 50, 20, 5, 0, 0, 3, 60, 80, 1, 10, 20, 2, 25, 0},
	{48, 50, 65, 48, 48, 88, 65, 48, 48},
}

// TestLossScanBetweenAcks plays the seed programs under one watch. Beyond the
// comparison itself it is what reaches the two cases of the log's walk that
// no scan made from OnAck can: OnAck re-sends a logged record without a scan
// having consumed its entry only when the record is the cumulative-ack hole,
// and scans again only once that hole is filled, so there an entry is never
// found superseded and never above the bound (0 of 2.1 M stale entries over
// the benchmark's workloads). The scan does not lean on that.
func TestLossScanBetweenAcks(t *testing.T) {
	watch := cc.WatchLossScans(t)
	for _, seed := range lossProgramSeeds {
		decodeLossProgram(seed).world(t).run()
	}
	t.Logf("%+v", *watch)
	if watch.Superseded == 0 {
		t.Error("never exercised: a superseded log entry dropped")
	}
	if watch.KeptAbove == 0 {
		t.Error("never exercised: a stale log entry kept because it was above the bound")
	}
}

// FuzzLossScanVsRescan plays fuzz-chosen one-flow worlds with the watch
// installed, so every presumed-lost scan in them is held to the full rescan.
func FuzzLossScanVsRescan(f *testing.F) {
	for _, seed := range lossProgramSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		watch := cc.WatchLossScans(t)
		w := decodeLossProgram(data).world(t)
		w.run()
		st := w.tr.Stats()
		if st.PacketsSent == 0 {
			t.Fatalf("nothing was sent: %+v", st)
		}
		t.Logf("%d sent, %d retransmissions, %d timeouts; watch %+v", st.PacketsSent, st.Retransmissions, st.Timeouts, *watch)
	})
}
