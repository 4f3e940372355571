package aqm

import (
	"testing"
	"testing/quick"

	"repro/internal/netsim"
	"repro/internal/sim"
)

func pkt(flow int, seq int64, size int) *netsim.Packet {
	return &netsim.Packet{Flow: flow, Seq: seq, Size: size}
}

func TestNewDropTailValidation(t *testing.T) {
	if _, err := NewDropTail(0); err == nil {
		t.Error("capacity 0 accepted")
	}
	if _, err := NewDropTail(-5); err == nil {
		t.Error("negative capacity accepted")
	}
	if _, err := NewECNMarking(10, 0); err == nil {
		t.Error("zero mark threshold accepted")
	}
	if _, err := NewECNMarking(0, 5); err == nil {
		t.Error("invalid capacity accepted for ECN queue")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustDropTail(0) should panic")
		}
	}()
	MustDropTail(0)
}

func TestDropTailFIFOAndTailDrop(t *testing.T) {
	q := MustDropTail(3)
	if q.Capacity() != 3 {
		t.Error("Capacity")
	}
	for i := int64(0); i < 3; i++ {
		if !q.Enqueue(pkt(0, i, 1500), sim.Time(i)) {
			t.Fatalf("enqueue %d rejected", i)
		}
	}
	if q.Len() != 3 || q.Bytes() != 4500 {
		t.Fatalf("Len=%d Bytes=%d", q.Len(), q.Bytes())
	}
	// Fourth packet is tail-dropped.
	if q.Enqueue(pkt(0, 3, 1500), 3) {
		t.Error("over-capacity enqueue accepted")
	}
	if q.Drops() != 1 {
		t.Errorf("Drops = %d", q.Drops())
	}
	// FIFO order.
	for i := int64(0); i < 3; i++ {
		p := q.Dequeue(10)
		if p == nil || p.Seq != i {
			t.Fatalf("dequeue %d returned %+v", i, p)
		}
	}
	if q.Dequeue(11) != nil {
		t.Error("dequeue from empty queue should return nil")
	}
	if q.Len() != 0 || q.Bytes() != 0 {
		t.Error("queue not empty after drain")
	}
}

func TestDropTailByteAccountingProperty(t *testing.T) {
	f := func(sizes []uint16, ops []bool) bool {
		q := MustDropTail(64)
		bytes := 0
		count := 0
		si := 0
		for _, op := range ops {
			if op && si < len(sizes) {
				size := int(sizes[si]%3000) + 1
				si++
				if q.Enqueue(pkt(0, int64(si), size), 0) {
					bytes += size
					count++
				}
			} else {
				if p := q.Dequeue(0); p != nil {
					bytes -= p.Size
					count--
				}
			}
			if q.Bytes() != bytes || q.Len() != count {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestECNMarking(t *testing.T) {
	q, err := NewECNMarking(100, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Below the threshold: no marks.
	for i := int64(0); i < 5; i++ {
		p := pkt(0, i, 1500)
		p.ECNCapable = true
		q.Enqueue(p, 0)
		if p.ECNMarked {
			t.Fatalf("packet %d marked below threshold (queue len %d)", i, q.Len())
		}
	}
	// At/above the threshold: ECN-capable packets are marked, not dropped.
	p := pkt(0, 6, 1500)
	p.ECNCapable = true
	if !q.Enqueue(p, 0) {
		t.Fatal("marked packet was dropped")
	}
	if !p.ECNMarked {
		t.Error("packet not marked above threshold")
	}
	// Non-ECN-capable packets are never marked.
	p2 := pkt(0, 7, 1500)
	if !q.Enqueue(p2, 0) || p2.ECNMarked {
		t.Error("non-ECN packet handling")
	}
	if q.Marks() != 1 {
		t.Errorf("Marks = %d", q.Marks())
	}
}

func TestCoDelValidation(t *testing.T) {
	if _, err := NewCoDel(0); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := NewCoDelWithParams(10, 0, CoDelInterval); err == nil {
		t.Error("zero target accepted")
	}
	if _, err := NewCoDelWithParams(10, CoDelTarget, 0); err == nil {
		t.Error("zero interval accepted")
	}
}

func TestCoDelNoDropsAtLowDelay(t *testing.T) {
	q, _ := NewCoDel(1000)
	// Packets dequeued with sojourn < target are never dropped.
	now := sim.Time(0)
	for i := int64(0); i < 200; i++ {
		q.Enqueue(pkt(0, i, 1500), now)
		p := q.Dequeue(now + 2*sim.Millisecond) // 2 ms < 5 ms target
		if p == nil || p.Seq != i {
			t.Fatalf("packet %d missing", i)
		}
		now += 3 * sim.Millisecond
	}
	if q.Drops() != 0 {
		t.Errorf("CoDel dropped %d packets below target delay", q.Drops())
	}
}

func TestCoDelDropsUnderPersistentQueue(t *testing.T) {
	q, _ := NewCoDel(10000)
	// Build a persistently long queue: enqueue much faster than dequeue so
	// sojourn times stay far above target for well over an interval.
	var now sim.Time
	seq := int64(0)
	for round := 0; round < 400; round++ {
		for i := 0; i < 5; i++ {
			q.Enqueue(pkt(0, seq, 1500), now)
			seq++
		}
		q.Dequeue(now)
		now += 10 * sim.Millisecond
	}
	if q.Drops() == 0 {
		t.Error("CoDel never dropped despite a persistent standing queue")
	}
	if q.Len() == 0 {
		t.Error("queue unexpectedly empty")
	}
}

func TestCoDelEmptyDequeue(t *testing.T) {
	q, _ := NewCoDel(10)
	if q.Dequeue(100) != nil {
		t.Error("empty dequeue should return nil")
	}
	if q.Bytes() != 0 || q.Len() != 0 {
		t.Error("empty queue accounting")
	}
}

func TestCoDelCapacityDrop(t *testing.T) {
	q, _ := NewCoDel(2)
	q.Enqueue(pkt(0, 0, 100), 0)
	q.Enqueue(pkt(0, 1, 100), 0)
	if q.Enqueue(pkt(0, 2, 100), 0) {
		t.Error("over-capacity enqueue accepted")
	}
	if q.Drops() != 1 {
		t.Error("capacity drop not counted")
	}
}

func TestSfqCoDelValidation(t *testing.T) {
	if _, err := NewSfqCoDel(0, 100); err == nil {
		t.Error("zero buckets accepted")
	}
	if _, err := NewSfqCoDel(8, 0); err == nil {
		t.Error("zero capacity accepted")
	}
}

func TestSfqCoDelIsolatesFlows(t *testing.T) {
	// One aggressive flow (many packets) and one light flow (few packets)
	// share the discipline; DRR must interleave service so the light flow is
	// not starved behind the heavy flow's backlog.
	q, err := NewSfqCoDel(64, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if q.Buckets() != 64 {
		t.Error("Buckets")
	}
	for i := int64(0); i < 100; i++ {
		q.Enqueue(pkt(1, i, 1500), 0) // heavy flow
	}
	for i := int64(0); i < 3; i++ {
		q.Enqueue(pkt(2, i, 1500), 0) // light flow
	}
	gotLight := 0
	for i := 0; i < 10; i++ {
		p := q.Dequeue(sim.Millisecond)
		if p == nil {
			t.Fatal("unexpected empty dequeue")
		}
		if p.Flow == 2 {
			gotLight++
		}
	}
	if gotLight == 0 {
		t.Error("light flow starved by heavy flow under DRR")
	}
}

func TestSfqCoDelDrainsCompletely(t *testing.T) {
	q, _ := NewSfqCoDel(16, 1000)
	total := 0
	for f := 0; f < 5; f++ {
		for i := int64(0); i < 20; i++ {
			if q.Enqueue(pkt(f, i, 1000), 0) {
				total++
			}
		}
	}
	if q.Len() != total {
		t.Fatalf("Len = %d, want %d", q.Len(), total)
	}
	got := 0
	for {
		p := q.Dequeue(sim.Millisecond)
		if p == nil {
			break
		}
		got++
	}
	if got != total {
		t.Errorf("dequeued %d packets, enqueued %d", got, total)
	}
	if q.Len() != 0 {
		t.Error("queue should be empty")
	}
	if q.Dequeue(2*sim.Millisecond) != nil {
		t.Error("empty dequeue should return nil")
	}
}

func TestSfqCoDelCapacity(t *testing.T) {
	q, _ := NewSfqCoDel(4, 5)
	accepted := 0
	for i := int64(0); i < 10; i++ {
		if q.Enqueue(pkt(int(i), i, 100), 0) {
			accepted++
		}
	}
	if accepted != 5 {
		t.Errorf("accepted %d packets with capacity 5", accepted)
	}
	if q.Drops() != 5 {
		t.Errorf("Drops = %d", q.Drops())
	}
}

// TestSfqCoDelLazyBucketsMatchEager drives one packet sequence — an overloaded
// link, so CoDel drops at dequeue and the shared capacity drops at enqueue,
// with a Reset in the middle — through a discipline as constructed (buckets
// created on first use) and through one whose buckets were all created up
// front. Every return value, drop-hook call and counter must agree: when a
// bucket comes to exist is not observable.
func TestSfqCoDelLazyBucketsMatchEager(t *testing.T) {
	const buckets = 32
	build := func(eager bool) (*SfqCoDel, *[]int64) {
		q, err := NewSfqCoDelWithParams(buckets, 60, sim.Millisecond, 10*sim.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if len(q.created) != 0 {
			t.Fatalf("a new discipline already has %d buckets", len(q.created))
		}
		if eager {
			for b := range q.buckets {
				q.newBucket(b)
			}
		}
		var dropped []int64
		q.SetDropHook(func(p *netsim.Packet) { dropped = append(dropped, int64(p.Flow)<<32|p.Seq) })
		return q, &dropped
	}
	lazy, lazyDrops := build(false)
	eager, eagerDrops := build(true)

	rng := sim.NewRNG(11)
	flows := 0
	step := func(i int, now sim.Time) {
		t.Helper()
		// Three arrivals per departure; flows 0-5, then 0-11 after the Reset.
		for j := 0; j < 3; j++ {
			f, size := rng.Intn(flows), 100+rng.Intn(1400)
			a := lazy.Enqueue(pkt(f, int64(3*i+j), size), now)
			b := eager.Enqueue(pkt(f, int64(3*i+j), size), now)
			if a != b {
				t.Fatalf("step %d: Enqueue accepted lazily %v, eagerly %v", i, a, b)
			}
		}
		a, b := lazy.Dequeue(now), eager.Dequeue(now)
		if (a == nil) != (b == nil) || (a != nil && (a.Flow != b.Flow || a.Seq != b.Seq)) {
			t.Fatalf("step %d: Dequeue returned %+v lazily, %+v eagerly", i, a, b)
		}
		if lazy.Len() != eager.Len() || lazy.Bytes() != eager.Bytes() || lazy.Drops() != eager.Drops() {
			t.Fatalf("step %d: Len/Bytes/Drops %d/%d/%d lazily, %d/%d/%d eagerly", i,
				lazy.Len(), lazy.Bytes(), lazy.Drops(), eager.Len(), eager.Bytes(), eager.Drops())
		}
	}
	for round, n := range []int{6, 12} {
		flows = n
		for i := 0; i < 2000; i++ {
			step(i, sim.Time(i)*200)
		}
		if len(*lazyDrops) == 0 || lazy.Drops() == int64(len(*lazyDrops)) {
			t.Fatalf("round %d: %d hook drops of %d; the sequence must drop at dequeue and at enqueue", round, len(*lazyDrops), lazy.Drops())
		}
		if len(lazy.created) == 0 || len(lazy.created) > n || len(eager.created) != buckets {
			t.Fatalf("round %d: %d flows created %d buckets lazily, %d eagerly", round, n, len(lazy.created), len(eager.created))
		}
		lazy.Reset()
		eager.Reset()
		if lazy.Len() != 0 || lazy.Bytes() != 0 || lazy.Drops() != 0 || lazy.Dequeue(0) != nil {
			t.Fatalf("round %d: Reset left Len %d, Bytes %d, Drops %d", round, lazy.Len(), lazy.Bytes(), lazy.Drops())
		}
	}
	if len(*lazyDrops) != len(*eagerDrops) {
		t.Fatalf("drop hook ran %d times lazily, %d eagerly", len(*lazyDrops), len(*eagerDrops))
	}
	for i := range *lazyDrops {
		if (*lazyDrops)[i] != (*eagerDrops)[i] {
			t.Fatalf("drop %d: lazily %x, eagerly %x", i, (*lazyDrops)[i], (*eagerDrops)[i])
		}
	}
}

func TestXCPQueueValidation(t *testing.T) {
	eng := sim.NewEngine()
	if _, err := NewXCPQueue(nil, 100, 1e6); err == nil {
		t.Error("nil engine accepted")
	}
	if _, err := NewXCPQueue(eng, 100, 0); err == nil {
		t.Error("zero capacity rate accepted")
	}
	if _, err := NewXCPQueue(eng, 0, 1e6); err == nil {
		t.Error("zero queue capacity accepted")
	}
}

func TestXCPQueuePositiveFeedbackWhenUnderloaded(t *testing.T) {
	eng := sim.NewEngine()
	q, err := NewXCPQueue(eng, 1000, 10e6) // 10 Mbps
	if err != nil {
		t.Fatal(err)
	}
	q.Start(0)

	// Drive a light load (well under capacity) with XCP headers for several
	// control intervals; afterwards, departing packets should receive
	// positive feedback (the router has spare bandwidth to hand out).
	seq := int64(0)
	send := func(now sim.Time) *netsim.Packet {
		p := pkt(0, seq, 1500)
		seq++
		p.XCP = &netsim.XCPHeader{CwndBytes: 3000, RTT: 100 * sim.Millisecond}
		q.Enqueue(p, now)
		return p
	}
	// ~120 kbps of offered load over 1 s = far below 10 Mbps. Record the
	// feedback allocated to packets departing after the controllers have had
	// several intervals of history.
	var maxFeedback float64
	for ms := 0; ms < 1000; ms += 100 {
		at := sim.Time(ms) * sim.Millisecond
		eng.Schedule(at, func(now sim.Time) {
			p := send(now)
			got := q.Dequeue(now)
			if got != p {
				t.Errorf("dequeue returned wrong packet")
			}
			if got != nil && got.XCP != nil && now > 500*sim.Millisecond && got.XCP.Feedback > maxFeedback {
				maxFeedback = got.XCP.Feedback
			}
		})
	}
	eng.Run(1100 * sim.Millisecond)
	if maxFeedback <= 0 {
		t.Errorf("expected positive XCP feedback on an underloaded link, got %v", maxFeedback)
	}
}

func TestXCPQueueNegativeFeedbackWhenOverloaded(t *testing.T) {
	eng := sim.NewEngine()
	q, err := NewXCPQueue(eng, 100000, 1e6) // 1 Mbps link
	if err != nil {
		t.Fatal(err)
	}
	q.Start(0)

	// Offer ~10 Mbps (10x capacity) mostly without draining, building a
	// persistent queue; packets departing after a few control intervals must
	// receive negative feedback.
	seq := int64(0)
	for ms := 0; ms < 800; ms++ {
		at := sim.Time(ms) * sim.Millisecond
		eng.Schedule(at, func(now sim.Time) {
			p := pkt(0, seq, 1250)
			seq++
			p.XCP = &netsim.XCPHeader{CwndBytes: 30000, RTT: 100 * sim.Millisecond}
			q.Enqueue(p, now)
		})
	}
	var feedback float64
	eng.Schedule(750*sim.Millisecond, func(now sim.Time) {
		out := q.Dequeue(now)
		if out == nil || out.XCP == nil {
			t.Error("expected a queued XCP packet")
			return
		}
		feedback = out.XCP.Feedback
	})
	eng.Run(900 * sim.Millisecond)
	if feedback >= 0 {
		t.Errorf("expected negative XCP feedback on an overloaded link, got %v", feedback)
	}
	if q.Len() == 0 {
		t.Error("queue should be backlogged")
	}
}

func TestXCPQueuePacketsWithoutHeaderPassThrough(t *testing.T) {
	eng := sim.NewEngine()
	q, _ := NewXCPQueue(eng, 10, 1e6)
	p := pkt(0, 0, 1500)
	if !q.Enqueue(p, 0) {
		t.Fatal("enqueue failed")
	}
	out := q.Dequeue(0)
	if out != p || out.XCP != nil {
		t.Error("non-XCP packet should pass through untouched")
	}
	if q.Dequeue(0) != nil {
		t.Error("queue should be empty")
	}
	if q.Bytes() != 0 {
		t.Error("byte accounting")
	}
}

func TestXCPQueueStartIdempotent(t *testing.T) {
	eng := sim.NewEngine()
	q, _ := NewXCPQueue(eng, 10, 1e6)
	q.Start(0)
	q.Start(0)
	pending := eng.Pending()
	if pending != 1 {
		t.Errorf("double Start scheduled %d control ticks, want 1", pending)
	}
}

// Property: any interleaving of enqueues/dequeues on any discipline keeps
// Len() non-negative and consistent with the number of successful enqueues
// minus dequeues minus dequeue-time drops.
func TestQueueLenNeverNegative(t *testing.T) {
	mk := []func() netsim.Queue{
		func() netsim.Queue { return MustDropTail(32) },
		func() netsim.Queue { q, _ := NewCoDel(32); return q },
		func() netsim.Queue { q, _ := NewSfqCoDel(8, 32); return q },
	}
	f := func(ops []bool, flows []uint8) bool {
		for _, make := range mk {
			q := make()
			now := sim.Time(0)
			fi := 0
			for _, op := range ops {
				now += sim.Millisecond
				if op {
					flow := 0
					if fi < len(flows) {
						flow = int(flows[fi] % 4)
						fi++
					}
					q.Enqueue(pkt(flow, now.Micros(), 1000), now)
				} else {
					q.Dequeue(now)
				}
				if q.Len() < 0 || q.Bytes() < 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkDropTailEnqueueDequeue(b *testing.B) {
	q := MustDropTail(1000)
	p := pkt(0, 0, 1500)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Enqueue(p, sim.Time(i))
		q.Dequeue(sim.Time(i))
	}
}

func BenchmarkSfqCoDelEnqueueDequeue(b *testing.B) {
	q, _ := NewSfqCoDel(64, 1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Enqueue(pkt(i%8, int64(i), 1500), sim.Time(i))
		q.Dequeue(sim.Time(i))
	}
}

// TestXCPControlTickAllocatesNothing pins the router's control loop: once
// started, closing a control interval and scheduling the next allocates
// nothing, however many intervals a run holds.
func TestXCPControlTickAllocatesNothing(t *testing.T) {
	eng := sim.NewEngine()
	q, err := NewXCPQueue(eng, 100, 10e6)
	if err != nil {
		t.Fatal(err)
	}
	q.Start(0)
	const intervals = 50 // each 100 ms: no traffic refines the interval
	var until sim.Time
	allocs := testing.AllocsPerRun(10, func() {
		until += intervals * 100 * sim.Millisecond
		eng.Run(until)
	})
	// AllocsPerRun's warm-up call plus its ten measured ones.
	if got, want := eng.Executed(), uint64(11*intervals); got != want {
		t.Fatalf("%d control ticks ran, want %d", got, want)
	}
	if allocs != 0 {
		t.Errorf("a started XCP router allocates %.1f times per %d control intervals, want 0", allocs, intervals)
	}
}
