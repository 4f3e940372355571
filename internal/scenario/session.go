package scenario

import (
	"fmt"
	"slices"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/harness"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/traces"
	"repro/internal/workload"
)

// Session is a reusable simulation: the full object graph of one world —
// engine, network, links, queues, transports, algorithms, switchers, churn
// runtime — built from a Spec once and run many times. Each Run(seed) rewinds
// every component to its just-constructed state and replays the world under a
// fresh seed, so a warm session executes the byte-identical event sequence a
// freshly built one would, while allocating (almost) nothing: the engine's
// slab, heap and lane rings, the network's packet pool, the transports'
// windows and the retired churn flows all persist across runs.
//
// Rebuild gives the session a world: it validates the spec, resolves its names
// against a registry and builds the world in one pass, out of the parts the
// old world leaves behind (see parts): packets, links, queues, fault states,
// ports, transports with their window rings, switchers, arrival processes,
// their distributions and random streams, and the synthesized traces of the
// links are re-targeted rather than reallocated, and so are the algorithms of
// the registry's stock protocols and the senders of its RemyCCs (RegisterRemy
// and the "remy" scheme), each rebound to the rule table the registry maps
// its scheme to. Only an algorithm no world on the session has built for its
// scheme yet, or one of a protocol the caller supplied (a FlowSpec.Algorithm,
// a scheme registered by RegisterProtocol or RegisterProtocolFactory, a CBR
// source), is new. A zero Session holds no world and no parts; its first
// Rebuild builds from nothing on a new engine.
//
// The runner, the campaign and the optimizer pump thousands of repetitions
// and worlds through pooled sessions; TestSessionReuseMatchesFresh pins
// warm-vs-fresh equality across schemes and queue disciplines,
// TestRebuiltSessionMatchesFresh, TestRebuildSequenceMatchesFresh and
// FuzzRebuildSequence pin rebuilt-vs-fresh equality across worlds,
// TestStockResetMatchesNew and TestRemySendersKeepTheirRegistrysTree pin the
// algorithm reuse, and TestRebuildAllocatesNothing,
// TestRebuildAllocatesOnlyAlgorithms, TestRebuildAndRunAllocateNothing and
// TestCampaignSteadyStateAllocs pin the allocation claims.
//
// Reuse requires every mutable component to be resettable. All queue
// disciplines in internal/aqm implement Reset; a registered queue kind whose
// factory returns a discipline without a Reset method is still safe for a
// single Run but must not be reused.
//
// A Session, like the engine it wraps, is not safe for concurrent use.
type Session struct {
	engine   *sim.Engine
	network  *netsim.Network
	queues   []keyedQueue
	flows    []*flowState
	churn    churnRuntime
	mtu      int
	duration sim.Time
	// linkFaults holds the compiled fault state of each link (nil for
	// fault-free links), indexed like network.Links(); reset reseeds each from
	// the run seed so fault realizations replay exactly across warm runs.
	linkFaults []*faults.LinkState
	// root is the run's root stream: reset reseeds it from the run seed and
	// splits one child seed per flow and churn class off it, each restarting
	// the stream its switcher or arrival process owns, so a warm run creates
	// no RNG state.
	root *sim.RNG
	// parts is what the session's earlier worlds left behind for its next.
	parts parts
	// built is false once a Rebuild has failed: the session then holds no
	// complete world, and Run refuses until a Rebuild succeeds.
	built bool
	// dropHook is the network's ReleaseDropped, bound once.
	dropHook func(*netsim.Packet)
	// perRep is set when the world depends on its repetition: a link's trace
	// is synthesized (see Spec.RepInvariant).
	perRep bool
	// traces holds the trace the current world synthesized for each link, by
	// link index, kept when a world synthesizes none so the next one that
	// does draws its trace into the same memory (see linkService).
	traces [][]sim.Time
	// lowered and protos are Rebuild's working lists — the spec's links and
	// the protocols of its flows and churn classes — kept for their capacity.
	lowered []loweredLink
	protos  []Protocol
	// churnRows are the churn rows of the last result a world without churn
	// classes collected into, which reads nil rows, kept for the next result
	// that needs rows and has none (see takeChurnRows).
	churnRows []harness.ChurnResult
}

// parts is the set of pieces the worlds built on one engine leave behind for
// the next one: everything a build allocates that Reset already knows how to
// clear. The network keeps its own — the packet pool, the links and the
// tables of names, slots and lanes (see netsim.Network.Rebuild) — and the set
// holds the rest. A piece is taken when the new world needs it, never before,
// so the set only ever holds what the largest world on the engine needed; and
// a flow's window rings start again from the size a new flow's start at,
// regrowing through the same sizes into the memory they keep (see
// cc.Transport.Rebind and netsim.Network.AttachPort), so a flow apparatus
// behaves as a new one whatever windows it served before.
//
// A retired churn flow returns here too, mid-run: within one world, the flow
// apparatus of a churn class is recycled arrival after arrival through the
// same set its flows are built from.
type parts struct {
	// flows are flow apparatus: port, transport (window ring, resend log,
	// retransmission queue, timers) and, once a static flow has used it, a
	// switcher with its stream. A spare flow's transport still points at the
	// algorithm it last ran, which belongs to no world (it is in algos, or
	// neither a stock protocol nor a RemyCC built it), except for churn flows
	// retired in the current world (flowState.cs), which keep theirs.
	flows []*flowState
	// algos are spare algorithms of stock protocols and RemyCCs (see
	// Protocol.spareKey). They are kept apart from the flows, so which flow
	// apparatus a flow gets (on which results depend, see takeFlow) does not
	// change with its scheme.
	algos []keyedAlgorithm
	// queues are reset queue disciplines with a key. Keys vary from world to
	// world (discipline, buffer, rate), so the most recently built of each
	// kind are kept, up to twice the links of the largest world: what two
	// alternating worlds need, and a kind a world does not use keeps its
	// spares for the next world that does.
	queues   []keyedQueue
	maxLinks int
	faults   []*faults.LinkState
	// classes are churn class runtimes with their arrival processes,
	// streams and FCT aggregators.
	classes []*churnState
	// made counts the flow apparatus the session has made.
	made int
}

// keyedAlgorithm is a spare algorithm and the key it is kept under (see
// Protocol.spareKey).
type keyedAlgorithm struct {
	key  string
	algo cc.Algorithm
}

// keyedQueue is a link's queue discipline and the key it was built under.
type keyedQueue struct {
	key   queueKey
	queue netsim.Queue
}

// unbound is the sender a flow's port is attached with until its transport,
// which needs the port to exist, is built and bound as the port's sender. No
// acknowledgment can arrive in between, since nothing has been sent.
var unbound = netsim.SenderFunc(func(netsim.Ack, sim.Time) {})

// Rebuild makes the session run repetition rep of spec, whose names it
// resolves against reg (nil means Default()), building the new world out of
// the parts the current one leaves behind. Its runs then give exactly what the
// same runs of a zero Session rebuilt for the same spec and rep would. Only a
// link whose trace a model synthesizes depends on rep (see RepInvariant); the
// seed of each run is Run's. On error the session holds no world until the
// next successful Rebuild, but keeps its parts.
func (ss *Session) Rebuild(reg *Registry, spec *Spec, rep int) error {
	if reg == nil {
		reg = Default()
	}
	w := spec.lower(ss.lowered)
	// The network goes first: it hands its in-flight packets back to its
	// pool through the engine's pending events, so the engine may only be
	// reset once it is done.
	ss.dismantle(netsim.GraphConfig{MTU: spec.mtu(), AckBytes: w.ackBytes})
	if ss.engine == nil {
		ss.engine = sim.NewEngine()
	}
	ss.engine.Reset()
	err := ss.build(reg, spec, rep, w)
	// The working lists point into the spec and its schemes; a pooled session
	// must not keep them alive.
	clear(w.links)
	ss.lowered = w.links[:0]
	clear(ss.protos)
	ss.protos = ss.protos[:0]
	ss.built = err == nil
	return err
}

// dismantle resets the current world and puts its pieces into the parts set,
// leaving the network empty for a topology with the given sizes.
func (ss *Session) dismantle(cfg netsim.GraphConfig) {
	ss.built = false
	if ss.network == nil {
		return
	}
	ss.network.Rebuild(cfg)
	p := &ss.parts
	for _, q := range ss.queues {
		if q.key != (queueKey{}) {
			p.queues = append(p.queues, q)
		}
	}
	p.maxLinks = max(p.maxLinks, len(ss.queues))
	p.trimQueues()
	clear(ss.queues)
	ss.queues = ss.queues[:0]
	for _, st := range ss.linkFaults {
		if st != nil {
			p.faults = append(p.faults, st)
		}
	}
	clear(ss.linkFaults)
	ss.linkFaults = ss.linkFaults[:0]
	p.flows = append(p.flows, ss.flows...)
	clear(ss.flows)
	ss.flows = ss.flows[:0]
	ss.churn.dismantle(p)
	for _, fs := range p.flows {
		if fs.spareKey != "" {
			p.putAlgorithm(fs.spareKey, fs.transport.Algorithm())
			fs.spareKey = ""
		}
		fs.cs = nil // its algorithm belongs to no world now
	}
}

// trimQueues drops the oldest spare queues of each kind beyond twice the
// links of the largest world.
func (p *parts) trimQueues() {
	limit := 2 * p.maxLinks
	for i := len(p.queues) - 1; i >= 0; i-- {
		newer := 0
		for _, q := range p.queues[i+1:] {
			if q.key.kind == p.queues[i].key.kind {
				newer++
			}
		}
		if newer >= limit {
			p.queues = slices.Delete(p.queues, i, i+1)
		}
	}
}

// algorithm returns an algorithm of proto: for a stock protocol or a RemyCC,
// the spare of its key put back last (see Protocol.spareKey), a RemyCC sender
// rebound to proto's rule table, reset to what proto.New returns; else, or
// when there is none, a new one.
func (p *parts) algorithm(proto Protocol) cc.Algorithm {
	if key := proto.spareKey(); key != "" {
		for i := len(p.algos) - 1; i >= 0; i-- {
			if p.algos[i].key == key {
				algo := p.algos[i].algo
				p.algos = slices.Delete(p.algos, i, i+1)
				if proto.remy != nil {
					algo.(*core.Sender).Rebind(proto.remy, nil)
				}
				algo.Reset(0)
				return algo
			}
		}
	}
	return proto.New()
}

// putAlgorithm puts algo into the set as a spare under the given key; an
// empty key marks an algorithm no stock protocol or RemyCC built, which is
// not kept, and neither is a nil one.
func (p *parts) putAlgorithm(key string, algo cc.Algorithm) {
	if key != "" && algo != nil {
		p.algos = append(p.algos, keyedAlgorithm{key: key, algo: algo})
	}
}

// build validates spec and builds its world on the reset engine, taking each
// piece from the parts set when there is one: links in order, then their
// fault states, then the static flows in port-slot order, then the churn
// classes. The schemes are resolved first, since the queue kind they imply is
// a link's last fallback; every other name is resolved as the piece that
// needs it is built.
func (ss *Session) build(reg *Registry, spec *Spec, rep int, w lowered) error {
	if err := spec.validate(w); err != nil {
		return err
	}
	protos, err := spec.resolveSchemes(reg, ss.protos)
	ss.protos = protos
	if err != nil {
		return err
	}
	ss.mtu, ss.duration = spec.mtu(), spec.Duration()
	if ss.network == nil {
		network, err := netsim.NewGraph(ss.engine, netsim.GraphConfig{MTU: ss.mtu, AckBytes: w.ackBytes})
		if err != nil {
			return err
		}
		ss.network = network
		ss.root = sim.NewRNG(0)
		ss.dropHook = network.ReleaseDropped
	}
	network := ss.network
	network.OnDeliver = spec.OnDeliver

	// Links: per-link trace synthesis (decorrelated across links), the
	// link's queue (its own, else the spec-level one, with the kind the
	// flows imply as the final fallback) and a capacity estimate for
	// rate-aware queues.
	runSeed := DeriveSeed(spec.Seed, rep)
	ss.perRep = false
	defaultKind := ""
	for li, l := range w.links {
		trace, capacityBps, err := ss.linkService(reg, spec, l, li, runSeed)
		if err != nil {
			return err
		}
		q := spec.queueOf(l)
		kind := q.Kind
		if kind == "" {
			if defaultKind == "" {
				if defaultKind, err = spec.queueKind(protos); err != nil {
					return err
				}
			}
			kind = defaultKind
		}
		kq, err := ss.queueFor(reg, kind, q, capacityBps)
		if err != nil {
			return fmt.Errorf("scenario: spec %q link %q: %w", spec.Name, l.Name, err)
		}
		if _, err := network.AddLink(netsim.LinkConfig{
			Name:      l.Name,
			RateBps:   l.RateBps,
			Trace:     trace,
			TraceLoop: l.TraceLoop,
			Delay:     sim.FromMillis(l.DelayMs),
			Queue:     kq.queue,
		}); err != nil {
			return err
		}
		ss.queues = append(ss.queues, kq)
	}

	// Compile and attach fault schedules (fault-free links stay nil; a world
	// without faults allocates nothing here).
	for i, l := range w.links {
		if l.faults.Empty() {
			continue
		}
		state, err := faults.Recompile(take(&ss.parts.faults), l.faults)
		if err != nil {
			return err
		}
		if len(ss.linkFaults) == 0 {
			ss.linkFaults = resize(ss.linkFaults, len(w.links))
		}
		ss.linkFaults[i] = state
		network.Links()[i].SetFaults(state)
	}
	// Disciplines that drop at dequeue time (CoDel and friends) recycle those
	// packets through the network's pool; enqueue-time drops are recycled by
	// the port itself.
	for _, q := range ss.queues {
		if hooked, ok := q.queue.(interface{ SetDropHook(func(*netsim.Packet)) }); ok {
			hooked.SetDropHook(ss.dropHook)
		}
	}

	// Static flows, each entry expanded to Count flows. Construction consumes
	// no randomness (verified by the session differential tests), so a new
	// switcher is built owning a placeholder stream; Run restarts it via
	// Reset from the child seed split off the run seed under the flow's label.
	for i := range spec.Flows {
		f := &spec.Flows[i]
		for range max(f.Count, 1) {
			fs := ss.parts.takeFlow(nil)
			ss.flows = append(ss.flows, fs)
			fs.oneWay = sim.FromMillis(f.RTTMs / 2)
			fs.fwd = appendRoute(fs.fwd[:0], network, w.route(f.Path))
			fs.rev = appendRoute(fs.rev[:0], network, f.ReversePath)
			if err := fs.attach(network, fs.fwd, fs.rev, fs.oneWay); err != nil {
				return err
			}
			algo := ss.parts.algorithm(protos[i])
			if algo == nil {
				return fmt.Errorf("scenario: spec %q flow %d: scheme %q built no algorithm", spec.Name, i, protos[i].Name)
			}
			if err := fs.bind(ss.engine, algo, ss.mtu); err != nil {
				return err
			}
			fs.algoName, fs.spareKey = algo.Name(), protos[i].spareKey()
			wl := f.Workload.compile(&fs.on, &fs.off)
			if fs.switcher == nil {
				switcher, err := workload.NewSwitcher(wl, ss.engine, sim.NewRNG(0))
				if err != nil {
					return err
				}
				switcher.OnStart = fs.switchedOn
				switcher.OnStop = fs.switchedOff
				fs.switcher = switcher
			} else if err := fs.switcher.SetSpec(wl); err != nil {
				return err
			}
		}
	}

	// The churn runtime attaches after every static flow, so static ports
	// keep slots 0..len(flows)-1 and the static RNG split order is unchanged
	// — a churn-free world runs the byte-identical event sequence it always
	// has.
	return ss.churn.assemble(ss, spec, w, protos[len(spec.Flows):])
}

// linkService resolves link li's service description — explicit trace >
// trace model > fixed rate — and the capacity estimate for rate-aware queues
// (explicit override, then the fixed rate, then the trace's long-term
// average). A synthesized trace is drawn into the memory of the one the
// session's previous world drew for link li, from the root stream reseeded
// with the link's trace seed (reset reseeds it again before any run); an
// explicit trace is the caller's, used as it is.
func (ss *Session) linkService(reg *Registry, spec *Spec, l loweredLink, li int, runSeed int64) (trace []sim.Time, capacityBps float64, err error) {
	packetBytes := spec.mtu()
	switch {
	case len(l.trace) > 0:
		trace = l.trace
	case l.synthesized():
		m, err := reg.LinkModel(l.Model)
		if err != nil {
			return nil, 0, err
		}
		for len(ss.traces) <= li {
			ss.traces = append(ss.traces, nil)
		}
		ss.root.Reseed(deriveLinkTraceSeed(runSeed, li))
		tr, err := m.Append(ss.traces[li][:0], spec.Duration(), ss.root)
		if err != nil {
			return nil, 0, fmt.Errorf("scenario: spec %q link %q model %q: %w", spec.Name, l.Name, l.Model, err)
		}
		ss.traces[li], trace = tr, tr
		ss.perRep = true
		if m.PacketBytes > 0 {
			packetBytes = m.PacketBytes
		}
	}
	capacityBps = l.XCPCapacityBps
	if capacityBps <= 0 && len(trace) == 0 {
		capacityBps = l.RateBps
	}
	if capacityBps <= 0 && len(trace) > 0 {
		capacityBps = traces.AverageRateBps(trace, packetBytes, spec.Duration())
	}
	return trace, capacityBps, nil
}

// queueFor returns the queue discipline of a link of the given kind: a spare
// one built under an equal key, or a new one from the kind's factory.
func (ss *Session) queueFor(reg *Registry, kind string, q QueueSpec, capacityBps float64) (keyedQueue, error) {
	factory, err := reg.Queue(kind)
	if err != nil {
		return keyedQueue{}, err
	}
	key := reg.queueKey(kind, q, capacityBps)
	if key != (queueKey{}) {
		for i, sq := range ss.parts.queues {
			if sq.key == key {
				ss.parts.queues = slices.Delete(ss.parts.queues, i, i+1)
				return sq, nil
			}
		}
	}
	queue, err := factory(q, QueueEnv{Engine: ss.engine, CapacityBps: capacityBps})
	if err != nil {
		return keyedQueue{}, err
	}
	if queue == nil {
		return keyedQueue{}, fmt.Errorf("scenario: queue kind %q built no queue", kind)
	}
	return keyedQueue{key: key, queue: queue}, nil
}

// appendRoute appends the network's links of the given (validated) names to
// dst.
func appendRoute(dst []*netsim.Link, n *netsim.Network, names []string) []*netsim.Link {
	for _, name := range names {
		dst = append(dst, n.LinkByName(name))
	}
	return dst
}

// take pops the last element of a parts list, or returns nil.
func take[T any](list *[]*T) *T {
	n := len(*list)
	if n == 0 {
		return nil
	}
	x := (*list)[n-1]
	(*list)[n-1] = nil
	*list = (*list)[:n-1]
	return x
}

// takeFlow takes a flow apparatus out of the set, or makes an empty one. For
// a churn class with flows retired in this world it takes the one retired
// last, whose algorithm is the class's already; a reused flow's receiver
// keeps the window ring it grew, and results depend on which one a flow gets
// (see netsim.Network.AttachPort), so each class reuses its own flows last
// in, first out, and never another class's. Otherwise it takes the first made
// of those no class of this world owns, so a world gets the same apparatus
// for its static flows whenever it is built, whatever was built before, and
// their buffers — window rings, retransmission queue and log, switcher — grow
// only the first time.
func (p *parts) takeFlow(cs *churnState) *flowState {
	pick := -1
	if cs != nil && cs.parked > 0 {
		for i := len(p.flows) - 1; i >= 0 && pick < 0; i-- {
			if p.flows[i].cs == cs {
				pick = i
			}
		}
	} else {
		for i, fs := range p.flows {
			if fs.cs == nil && (pick < 0 || fs.made < p.flows[pick].made) {
				pick = i
			}
		}
	}
	if pick >= 0 {
		fs := p.flows[pick]
		p.flows = slices.Delete(p.flows, pick, pick+1)
		if cs != nil && fs.cs == cs {
			cs.parked--
		}
		return fs
	}
	fs := &flowState{made: p.made}
	p.made++
	fs.bytesAcked = fs.onBytesAcked
	return fs
}

// Run executes the session's world once with the given seed. Runs with equal
// worlds and seeds produce identical results whether executed by a session
// just built, a warm one or one rebuilt from another world.
func (ss *Session) Run(seed int64) (harness.Result, error) {
	var res harness.Result
	if err := ss.RunInto(seed, &res); err != nil {
		return harness.Result{}, err
	}
	return res, nil
}

// RunInto is Run writing the result into res, whose slices' capacity it
// reuses: a caller that keeps one Result across runs collects every run
// without allocating for it, whatever worlds they are. Everything in res is
// overwritten, and the rows it held are the session's to reuse.
func (ss *Session) RunInto(seed int64, res *harness.Result) error {
	if !ss.built {
		return fmt.Errorf("scenario: the session holds no world: it was never built, or its last build failed")
	}
	if err := ss.reset(seed); err != nil {
		return err
	}

	// Arm everything and run. Queues with an internal control loop (the XCP
	// router) expose Start and are armed alongside the network.
	ss.network.Start(0)
	for _, q := range ss.queues {
		if starter, ok := q.queue.(interface{ Start(now sim.Time) }); ok {
			starter.Start(0)
		}
	}
	for _, fs := range ss.flows {
		fs.switcher.Start(0)
	}
	ss.churn.start(0)
	ss.engine.Run(ss.duration)
	if ss.churn.err != nil {
		return ss.churn.err
	}
	ss.collect(res)
	return nil
}

// reset rewinds every component to its just-constructed state and installs
// the run's random streams. It is the uniform entry path of Run — the first
// run resets the just-built (still pristine) graph, so warm and cold runs
// execute identical code.
func (ss *Session) reset(seed int64) error {
	// Network first: draining queue disciplines through their dequeue path
	// wants the pre-reset clock (packets carry enqueue stamps from the
	// previous run).
	ss.network.Reset()
	ss.engine.Reset()

	// Per-link fault streams reseed from the run seed with their own salt,
	// mirroring trace-seed derivation: decorrelated across links, identical
	// across worker counts.
	for i, state := range ss.linkFaults {
		if state != nil {
			state.Reset(faults.DeriveSeed(seed, i))
		}
	}

	ss.root.Reseed(seed)
	for i, fs := range ss.flows {
		if err := ss.network.ReattachFlowRoute(fs.port, fs.fwd, fs.rev, fs.oneWay); err != nil {
			return err
		}
		fs.transport.Reset()
		// Flow i draws child i+1.
		fs.switcher.Reset(ss.root.SplitSeed(int64(i) + 1))
		fs.onTime = 0
		fs.lastOn = 0
		fs.onPeriods = 0
	}
	ss.churn.reset(ss.root, len(ss.flows), &ss.parts)
	return nil
}

// collect writes the per-flow and per-link metrics of the run just executed
// into res.
func (ss *Session) collect(res *harness.Result) {
	network := ss.network
	*res = harness.Result{
		Flows:        resize(res.Flows, len(ss.flows)),
		Churn:        ss.takeChurnRows(res.Churn),
		Offered:      network.PacketsOffered(),
		Delivered:    network.Link().Delivered(),
		Dropped:      network.PacketsDropped(),
		AcksDropped:  network.AcksDropped(),
		FaultDropped: network.FaultDropped(),
		Links:        resize(res.Links, len(network.Links())),
	}
	for i, l := range network.Links() {
		res.Links[i] = harness.LinkResult{
			Name:           l.Name(),
			Delivered:      l.Delivered(),
			DeliveredBytes: l.DeliveredBytes(),
			Drops:          l.Queue().Drops(),
			FaultDrops:     l.FaultDropped(),
		}
	}
	for i, fs := range ss.flows {
		onTime := fs.onTime
		if fs.switcher.State() == workload.On {
			onTime += ss.duration - fs.lastOn
		}
		st := fs.transport.Stats()
		minRTT := network.MinRTT(i)
		meanRTT := st.MeanRTT()

		var throughput float64
		if onTime > 0 {
			throughput = float64(st.BytesAcked) * 8 / onTime.Seconds()
		}
		queueing := (meanRTT - minRTT).Seconds()
		if queueing < 0 {
			queueing = 0
		}
		res.Flows[i] = harness.FlowResult{
			Metrics: stats.FlowMetrics{
				ThroughputBps: throughput,
				AvgRTT:        meanRTT.Seconds(),
				MinRTT:        minRTT.Seconds(),
				QueueingDelay: queueing,
				BytesAcked:    st.BytesAcked,
				OnDuration:    onTime.Seconds(),
				PacketsSent:   st.PacketsSent,
				PacketsLost:   st.LossEvents,
			},
			Transport: st,
			Algorithm: fs.algoName,
			OnPeriods: fs.onPeriods,
		}
	}
	ss.churn.collect(res.Churn)
}

// takeChurnRows returns the churn rows for the run just executed, made from
// rows, the ones its result held. A world without churn classes gets nil
// rows, as a new result has, and the session keeps the rows it was given for
// the next result whose own are too few.
func (ss *Session) takeChurnRows(rows []harness.ChurnResult) []harness.ChurnResult {
	n := len(ss.churn.classes)
	if n == 0 {
		if cap(rows) > cap(ss.churnRows) {
			ss.churnRows = rows[:0]
		}
		return nil
	}
	if cap(rows) < n && cap(ss.churnRows) >= n {
		rows, ss.churnRows = ss.churnRows, nil
	}
	return resize(rows, n)
}

// resize returns s with length n, reusing its capacity when it suffices; nil
// for n == 0, as a result built by appending to nothing would have.
func resize[T any](s []T, n int) []T {
	if n == 0 {
		return nil
	}
	return slices.Grow(s[:0], n)[:n]
}
