package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/aqm"
	"repro/internal/campaign"
	"repro/internal/cc"
	"repro/internal/cc/cubic"
	"repro/internal/cc/newreno"
	"repro/internal/cc/vegas"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/netsim"
	"repro/internal/optimizer"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
)

// The probe ladder: each probe calls one layer's public API in a loop and
// reports the cost of one call. Probes do not depend on the workload; every
// traced run carries the whole ladder so a per-layer number always sits next
// to the end-to-end numbers of the same process on the same machine.

// probeReps is how many times each probe's loop is timed; the median is
// reported.
const probeReps = 5

// perCall times body(n) probeReps times and returns the median wall per
// call in nanoseconds.
func perCall(n int, body func(n int)) float64 {
	xs := make([]float64, probeReps)
	for r := range xs {
		start := time.Now()
		body(n)
		xs[r] = float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	return stats.Median(xs)
}

// allocsPerCall returns the mallocs of body(n) per call.
func allocsPerCall(n int, body func(n int)) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	body(n)
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// prober carries what the probes share: the seed's random stream, the
// iteration scale and the 150-rule tree.
type prober struct {
	rng   *sim.RNG
	scale float64
	deep  *core.WhiskerTree
	out   map[string]float64
}

func (p *prober) n(full int) int {
	n := int(float64(full) * p.scale)
	if n < 4 {
		n = 4
	}
	return n
}

// runProbes runs the whole ladder and returns its metrics by name.
func runProbes(cfg runConfig) (map[string]float64, error) {
	trees, err := loadRemyTrees()
	if err != nil {
		return nil, err
	}
	p := &prober{rng: sim.NewRNG(cfg.seed), scale: cfg.size.probeScale, deep: trees.deep, out: make(map[string]float64)}
	for _, probe := range []func() error{
		p.sim, p.netsim, p.aqm, p.cc, p.core, p.traces, p.scenario, p.campaign, p.stats, p.distrib,
	} {
		runtime.GC()
		if err := probe(); err != nil {
			return nil, err
		}
	}
	return p.out, nil
}

// hold is the classic hold model: pending events stay queued; each executed
// event schedules its successor a random delay ahead.
func (p *prober) hold(pending int) float64 {
	e := sim.NewEngine()
	delays := make([]sim.Time, 4096)
	for i := range delays {
		delays[i] = sim.Time(1 + p.rng.Intn(2000))
	}
	k := 0
	var fn func(now sim.Time)
	fn = func(now sim.Time) {
		k++
		e.Schedule(now+delays[k&4095], fn)
	}
	for i := 0; i < pending; i++ {
		e.Schedule(delays[i&4095], fn)
	}
	step := func(n int) {
		for i := 0; i < n; i++ {
			e.Step()
		}
	}
	step(2 * pending) // let the calendar tune itself
	return perCall(p.n(300000), step)
}

func (p *prober) sim() error {
	p.out["sim.hold_ns_per_event"] = p.hold(1000)
	p.out["sim.hold64k_ns_per_event"] = p.hold(1 << 16)

	// The RTO pattern: a timer parked far ahead, pushed back on every ack.
	e := sim.NewEngine()
	timer := e.NewTimer(func(sim.Time) {})
	p.out["sim.timer_rearm_ns"] = perCall(p.n(1000000), func(n int) {
		for i := 0; i < n; i++ {
			timer.Schedule(sim.Second + sim.Time(i&1023))
		}
	})
	return nil
}

// loop is a closed-loop sender keeping window packets in flight on a
// one-flow dumbbell: the cheapest possible driver of the netsim round trip.
type loop struct {
	port  *netsim.Port
	acked int64
	seq   int64
}

func (l *loop) send(now sim.Time) {
	pkt := l.port.NewPacket()
	pkt.Seq = l.seq
	pkt.Size = netsim.MTU
	pkt.SentAt = now
	l.seq++
	l.port.Send(pkt, now)
}

func (l *loop) OnAck(a netsim.Ack, now sim.Time) {
	l.acked++
	l.send(now)
}

// roundTrip measures wall per acknowledged packet of a closed loop over the
// given network configuration, and its mallocs per packet.
func (p *prober) roundTrip(cfg netsim.Config, simS float64) (ns, allocs float64, err error) {
	e := sim.NewEngine()
	q, err := aqm.NewDropTail(1000)
	if err != nil {
		return 0, 0, err
	}
	cfg.Queue = q
	net, err := netsim.NewNetwork(e, cfg)
	if err != nil {
		return 0, 0, err
	}
	l := &loop{}
	if l.port, err = net.AttachFlow(l, 5*sim.Millisecond); err != nil {
		return 0, 0, err
	}
	net.Start(0)
	for i := 0; i < 64; i++ {
		l.send(0)
	}
	slice := sim.FromSeconds(simS * p.scale)
	if slice < 500*sim.Millisecond {
		slice = 500 * sim.Millisecond
	}
	// A trace may open with an outage: a slice counts only once it has
	// delivered something, and twenty silent slices are a failure.
	run := func(int) {
		before := l.acked
		for i := 0; i < 20 && l.acked == before; i++ {
			e.Run(e.Now() + slice)
		}
	}
	run(0) // warm the pools
	xs := make([]float64, probeReps)
	for r := range xs {
		before := l.acked
		start := time.Now()
		run(0)
		wall := time.Since(start)
		if l.acked == before {
			return 0, 0, fmt.Errorf("benchmark: round-trip probe delivered nothing")
		}
		xs[r] = float64(wall.Nanoseconds()) / float64(l.acked-before)
	}
	before := l.acked
	perSlice := allocsPerCall(1, run)
	return stats.Median(xs), perSlice / float64(l.acked-before), nil
}

func (p *prober) netsim() error {
	// Link alone: enqueue, back-to-back service events, delivery.
	e := sim.NewEngine()
	q, err := aqm.NewDropTail(2000)
	if err != nil {
		return err
	}
	delivered := 0
	link, err := netsim.NewFixedRateLink(e, q, 1e9, func(*netsim.Packet, sim.Time) { delivered++ })
	if err != nil {
		return err
	}
	pkts := make([]netsim.Packet, 1000)
	burst := func() {
		for j := range pkts {
			pkts[j] = netsim.Packet{Seq: int64(j), Size: netsim.MTU}
			q.Enqueue(&pkts[j], e.Now())
			link.Offer(e.Now())
		}
		e.Run(e.Now() + sim.Second)
	}
	burst()
	bursts := p.n(200)
	p.out["netsim.link_ns_per_pkt"] = perCall(bursts*len(pkts), func(int) {
		for i := 0; i < bursts; i++ {
			burst()
		}
	})
	if delivered == 0 {
		return fmt.Errorf("benchmark: link probe delivered nothing")
	}

	ns, allocs, err := p.roundTrip(netsim.Config{LinkRateBps: 100e6}, 4)
	if err != nil {
		return err
	}
	p.out["netsim.roundtrip_ns_per_pkt"] = ns
	p.out["netsim.roundtrip_allocs_per_pkt"] = allocs

	model, err := scenario.Default().LinkModel("verizon")
	if err != nil {
		return err
	}
	trace, err := model.Generate(10*sim.Second, p.rng.Split(1))
	if err != nil {
		return err
	}
	ns, _, err = p.roundTrip(netsim.Config{Trace: trace, TraceLoop: true}, 20)
	if err != nil {
		return err
	}
	p.out["netsim.tracelink_ns_per_pkt"] = ns
	return nil
}

// queueProbe measures one Enqueue plus one Dequeue with the queue held at a
// depth of 100. The clock advances 10 µs per packet, so sojourn stays near
// 1 ms — under CoDel's target — and the probe times the no-drop path.
func (p *prober) queueProbe(q netsim.Queue, xcp bool) float64 {
	pkts := make([]*netsim.Packet, 128)
	for i := range pkts {
		pkts[i] = &netsim.Packet{Flow: i % 8, Seq: int64(i), Size: netsim.MTU}
		if xcp {
			h := pkts[i].EnsureXCP()
			h.CwndBytes = 20 * netsim.MTU
			h.RTT = 150 * sim.Millisecond
		}
	}
	now := sim.Time(0)
	free := pkts
	for q.Len() < 100 {
		now += 10
		q.Enqueue(free[0], now)
		free = free[1:]
	}
	next := free[0]
	return perCall(p.n(500000), func(n int) {
		for i := 0; i < n; i++ {
			now += 10
			q.Enqueue(next, now)
			next = q.Dequeue(now)
		}
	})
}

func (p *prober) aqm() error {
	dt, err := aqm.NewDropTail(1000)
	if err != nil {
		return err
	}
	p.out["aqm.droptail_ns_per_pkt"] = p.queueProbe(dt, false)
	cd, err := aqm.NewCoDel(1000)
	if err != nil {
		return err
	}
	p.out["aqm.codel_ns_per_pkt"] = p.queueProbe(cd, false)
	sfq, err := aqm.NewSfqCoDel(1024, 1000)
	if err != nil {
		return err
	}
	p.out["aqm.sfqcodel_ns_per_pkt"] = p.queueProbe(sfq, false)
	x, err := aqm.NewXCPQueue(sim.NewEngine(), 1000, 15e6)
	if err != nil {
		return err
	}
	p.out["aqm.xcp_ns_per_pkt"] = p.queueProbe(x, true)
	return nil
}

// onAck drives an algorithm with a steady stream of in-order acks.
func (p *prober) onAck(algo cc.Algorithm) float64 {
	algo.Reset(0)
	ev := cc.AckEvent{RTT: 160 * sim.Millisecond, MinRTT: 150 * sim.Millisecond, SRTT: 158 * sim.Millisecond, NewlyAcked: 1, InFlight: 20, MSS: netsim.MTU}
	return perCall(p.n(500000), func(n int) {
		for i := 0; i < n; i++ {
			ev.Now += 800
			ev.Ack.SentAt = ev.Now - ev.RTT
			ev.Ack.Seq++
			algo.OnAck(ev)
		}
	})
}

func (p *prober) cc() error {
	p.out["cc.newreno_onack_ns"] = p.onAck(newreno.New())
	p.out["cc.cubic_onack_ns"] = p.onAck(cubic.New())
	p.out["cc.vegas_onack_ns"] = p.onAck(vegas.New())

	// The netsim round trip again, now driven by a real cc.Transport running
	// NewReno: the rung above netsim.roundtrip_ns_per_pkt on the same link.
	e := sim.NewEngine()
	q, err := aqm.NewDropTail(1000)
	if err != nil {
		return err
	}
	net, err := netsim.NewNetwork(e, netsim.Config{LinkRateBps: 100e6, Queue: q})
	if err != nil {
		return err
	}
	var transport *cc.Transport
	port, err := net.AttachFlow(netsim.SenderFunc(func(a netsim.Ack, now sim.Time) { transport.OnAck(a, now) }), 5*sim.Millisecond)
	if err != nil {
		return err
	}
	if transport, err = cc.NewTransport(e, port, newreno.New(), netsim.MTU); err != nil {
		return err
	}
	transport.StartFlow(0)
	slice := sim.FromSeconds(4 * p.scale)
	if slice < 100*sim.Millisecond {
		slice = 100 * sim.Millisecond
	}
	e.Run(e.Now() + 2*sim.Second) // past slow start
	xs := make([]float64, probeReps)
	for r := range xs {
		before := transport.Stats().AcksReceived
		start := time.Now()
		e.Run(e.Now() + slice)
		wall := time.Since(start)
		acked := transport.Stats().AcksReceived - before
		if acked == 0 {
			return fmt.Errorf("benchmark: transport probe delivered nothing")
		}
		xs[r] = float64(wall.Nanoseconds()) / float64(acked)
	}
	p.out["cc.transport_ack_ns_per_pkt"] = stats.Median(xs)
	return nil
}

func (p *prober) core() error {
	tree := p.deep
	// A walk through memory space with locality: consecutive acks of a flow
	// mostly stay in one rule, and now and then jump.
	points := make([]core.Memory, 4096)
	m := core.Memory{AckEWMA: 1, SendEWMA: 1, RTTRatio: 1.1}
	for i := range points {
		if i%64 == 0 {
			m = core.Memory{AckEWMA: p.rng.Uniform(0, 64), SendEWMA: p.rng.Uniform(0, 64), RTTRatio: p.rng.Uniform(1, 4)}
		}
		m.AckEWMA *= p.rng.Uniform(0.98, 1.02)
		m.SendEWMA *= p.rng.Uniform(0.98, 1.02)
		points[i] = m.Clamp()
	}
	sink := 0
	p.out["core.lookup_ns"] = perCall(p.n(400000), func(n int) {
		for i := 0; i < n; i++ {
			idx, _ := tree.Lookup(points[i&4095])
			sink += idx
		}
	})
	p.out["core.lookup_hint_ns"] = perCall(p.n(400000), func(n int) {
		hint := -1
		for i := 0; i < n; i++ {
			hint, _ = tree.LookupHint(points[i&4095], hint)
			sink += hint
		}
	})
	p.out["core.sender_onack_ns"] = p.onAck(core.NewSender(tree))

	action := core.DefaultAction()
	p.out["core.with_action_ns"] = perCall(p.n(5000), func(n int) {
		for i := 0; i < n; i++ {
			t, err := tree.WithAction(i%tree.NumWhiskers(), action)
			if err == nil {
				sink += t.NumWhiskers()
			}
		}
	})
	key := func(n int) {
		for i := 0; i < n; i++ {
			sink += len(tree.CanonicalKey())
		}
	}
	p.out["core.canonical_key_ns"] = perCall(p.n(3000), key)
	p.out["core.canonical_key_allocs"] = allocsPerCall(p.n(500), key)

	var codecErr error
	p.out["core.tree_json_ns"] = perCall(p.n(8), func(n int) {
		for i := 0; i < n; i++ {
			data, err := json.Marshal(tree)
			if err != nil {
				codecErr = err
				return
			}
			back := &core.WhiskerTree{}
			if err := json.Unmarshal(data, back); err != nil {
				codecErr = err
				return
			}
			sink += back.NumWhiskers()
		}
	})
	if sink == 0 {
		return fmt.Errorf("benchmark: core probes did no work")
	}
	return codecErr
}

func (p *prober) traces() error {
	model, err := scenario.Default().LinkModel("verizon")
	if err != nil {
		return err
	}
	const simS = 20
	var genErr error
	rng := p.rng.Split(2)
	ns := perCall(p.n(40), func(n int) {
		for i := 0; i < n; i++ {
			if _, err := model.Generate(simS*sim.Second, rng); err != nil {
				genErr = err
			}
		}
	})
	p.out["traces.generate_ms_per_sim_s"] = ns / 1e6 / simS
	return genErr
}

func (p *prober) scenario() error {
	spec := scenario.FlowChurnSpec(scenario.FamilyConfig{Scheme: "cubic", DurationSeconds: 5, Seed: 1, Repetitions: 2})
	data, err := spec.Marshal()
	if err != nil {
		return err
	}
	var decErr error
	p.out["scenario.unmarshal_us"] = perCall(p.n(500), func(n int) {
		for i := 0; i < n; i++ {
			if _, err := scenario.Unmarshal(data); err != nil {
				decErr = err
			}
		}
	}) / 1e3
	return decErr
}

func (p *prober) campaign() error {
	sweep := gridSweep(runConfig{seed: 1, size: fullSizing})
	cells := sweep.NumCells()
	var expErr error
	var records []campaign.CellRecord
	expand := func(int) {
		records = records[:0]
		for i := 0; i < cells; i++ {
			cell, err := sweep.Cell(i)
			if err != nil {
				expErr = err
				return
			}
			spec, err := cell.Spec()
			if err != nil {
				expErr = err
				return
			}
			records = append(records, campaign.CellRecord{
				Version: campaign.ManifestVersion, Campaign: sweep.Name, Index: cell.Index, ID: cell.ID,
				Family: cell.Family, Scheme: cell.Scheme, Coords: cell.Coords, Seed: cell.Seed, SpecName: spec.Name,
			})
		}
	}
	rounds := p.n(10)
	p.out["campaign.expand_us_per_cell"] = perCall(rounds*cells, func(int) {
		for r := 0; r < rounds; r++ {
			expand(0)
		}
	}) / 1e3
	if expErr != nil {
		return expErr
	}
	var buf bytes.Buffer
	p.out["campaign.manifest_us_per_cell"] = perCall(rounds*cells, func(int) {
		for r := 0; r < rounds; r++ {
			buf.Reset()
			for _, rec := range records {
				if err := campaign.AppendRecord(&buf, rec); err != nil {
					expErr = err
				}
			}
		}
	}) / 1e3
	return expErr
}

func (p *prober) stats() error {
	xs := make([]float64, 4096)
	for i := range xs {
		xs[i] = p.rng.Exponential(10)
	}
	est := stats.NewP2Quantile(0.5)
	p.out["stats.p2_ns_per_obs"] = perCall(p.n(500000), func(n int) {
		for i := 0; i < n; i++ {
			est.Observe(xs[i&4095])
		}
	})
	// One Summarize per repetition over its flows: eight, as in the dumbbell.
	sink := 0
	p.out["stats.summarize_us"] = perCall(p.n(50000), func(n int) {
		for i := 0; i < n; i++ {
			off := (i * 8) & 4095
			sink += stats.Summarize(xs[off : off+8]).N
		}
	}) / 1e3
	if sink == 0 {
		return fmt.Errorf("benchmark: stats probes did no work")
	}
	return nil
}

// cycle replays a byte string forever, so one Conn can decode the same
// frames again and again without being rebuilt.
type cycle struct {
	data []byte
	off  int
}

func (c *cycle) Read(p []byte) (int, error) {
	if c.off == len(c.data) {
		c.off = 0
	}
	n := copy(p, c.data[c.off:])
	c.off += n
	return n, nil
}

// distrib replays one synthetic batch — sixteen jobs sharing the 150-rule
// tree, and their results — through Conn.WriteFrame and Conn.ReadFrame.
func (p *prober) distrib() error {
	const jobs = 16
	treeJSON, err := json.Marshal(p.deep)
	if err != nil {
		return err
	}
	design := optimizer.DumbbellDesignRange()
	req := &distrib.EvalRequest{ID: 1, Objective: stats.DefaultObjective(1), Trees: []json.RawMessage{treeJSON}}
	resp := &distrib.EvalResponse{ID: 1}
	rules := p.deep.NumWhiskers()
	for i := 0; i < jobs; i++ {
		req.Jobs = append(req.Jobs, distrib.WireJob{Specimen: design.Sample(p.rng), Config: design})
		counts := make([]int64, rules)
		for r := range counts {
			counts[r] = int64(p.rng.Intn(5000))
		}
		resp.Results = append(resp.Results, distrib.WireResult{Sum: p.rng.Normal(0, 1), Flows: 8, Counts: counts, Consulted: make([]bool, rules)})
	}
	frames := []*distrib.Frame{{Type: distrib.TypeEval, Eval: req}, {Type: distrib.TypeResult, Result: resp}}

	var wireBytes bytes.Buffer
	enc := distrib.NewConn(&cycle{data: []byte{0}}, &wireBytes)
	var codecErr error
	write := func(n int) {
		for i := 0; i < n; i++ {
			wireBytes.Reset()
			for _, f := range frames {
				if err := enc.WriteFrame(f); err != nil {
					codecErr = err
				}
			}
		}
	}
	batches := p.n(25)
	p.out["distrib.encode_us_per_job"] = perCall(batches*jobs, func(int) { write(batches) }) / 1e3
	if codecErr != nil {
		return codecErr
	}
	dec := distrib.NewConn(&cycle{data: append([]byte(nil), wireBytes.Bytes()...)}, io.Discard)
	p.out["distrib.decode_us_per_job"] = perCall(batches*jobs, func(int) {
		for i := 0; i < batches*len(frames); i++ {
			if _, err := dec.ReadFrame(); err != nil {
				codecErr = err
			}
		}
	}) / 1e3
	return codecErr
}
