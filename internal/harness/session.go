package harness

import (
	"fmt"

	"repro/internal/cc"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Session is a reusable simulation: the full object graph of one scenario —
// engine, network, links, queues, transports, algorithms, switchers, churn
// runtime — built once and run many times. Each Run(seed) rewinds every
// component to its just-constructed state and replays the scenario under a
// fresh seed, so a warm session executes the byte-identical event sequence a
// freshly built harness.Run would, while allocating (almost) nothing: the
// engine's slab, heap and lane rings, the network's packet pool, the
// transports' maps and the churn pools all persist across runs.
//
// The campaign and optimizer layers pump thousands of repetitions through
// pooled sessions; TestSessionReuseMatchesFresh pins warm-vs-fresh equality
// across schemes and queue disciplines, and TestCampaignSteadyStateAllocs
// pins the allocation claim.
//
// Reuse requires every mutable component to be resettable. All queue
// disciplines in internal/aqm implement Reset; a scenario whose link NewQueue
// returns a custom discipline without a Reset method is still safe for a
// single Run (harness.Run builds a throwaway session) but must not be reused.
//
// A Session, like the engine it wraps, is not safe for concurrent use.
type Session struct {
	spec    Scenario
	engine  *sim.Engine
	network *netsim.Network
	queues  []netsim.Queue
	flows   []*flowState
	churn   *churnRuntime
	mtu     int
	// linkFaults holds the compiled fault state of each link (nil for
	// fault-free links), indexed like network.Links(); reset reseeds each from
	// the run seed so fault realizations replay exactly across warm runs.
	linkFaults []*faults.LinkState
	// root is the run's root stream: reset reseeds it from the run seed and
	// splits one child seed per flow and churn class off it, each restarting
	// the stream its switcher or arrival process owns, so a warm run creates
	// no RNG state.
	root *sim.RNG
}

// unbound is the sender a flow's port is attached with until its transport,
// which needs the port to exist, is built and bound as the port's sender. No
// acknowledgment can arrive in between, since nothing has been sent.
var unbound = netsim.SenderFunc(func(netsim.Ack, sim.Time) {})

// NewSession builds a reusable session for the scenario on a fresh engine.
func NewSession(s Scenario) (*Session, error) {
	return NewSessionOn(sim.NewEngine(), s)
}

// NewSessionOn builds a reusable session for the scenario on the supplied
// engine — typically one drawn from a pool, carrying warm slab and bucket
// capacity from earlier runs. The engine must be idle; whatever an earlier
// session left pending on it is discarded here (its in-flight packets belong
// to that session's pools, not this one's), and the session resets the engine
// at the start of every Run.
func NewSessionOn(engine *sim.Engine, s Scenario) (*Session, error) {
	if engine == nil {
		return nil, fmt.Errorf("harness: NewSessionOn requires an engine")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	engine.Reset()

	mtu := s.MTU
	if mtu <= 0 {
		mtu = netsim.MTU
	}

	ss := &Session{spec: s, engine: engine, mtu: mtu, root: sim.NewRNG(0)}

	network, queues, err := build(s, engine, mtu)
	if err != nil {
		return nil, err
	}
	ss.network = network
	ss.queues = queues
	network.OnDeliver = s.OnDeliver

	// Compile and attach fault schedules (nil entries leave links fault-free;
	// an all-nil scenario allocates nothing here).
	for i := range s.Links {
		state, err := faults.Compile(s.Links[i].Faults)
		if err != nil {
			return nil, err
		}
		if state == nil {
			continue
		}
		if ss.linkFaults == nil {
			ss.linkFaults = make([]*faults.LinkState, len(s.Links))
		}
		ss.linkFaults[i] = state
		network.Links()[i].SetFaults(state)
	}
	// Disciplines that drop at dequeue time (CoDel and friends) recycle those
	// packets through the network's pool; enqueue-time drops are recycled by
	// the port itself.
	for _, q := range queues {
		if hooked, ok := q.(interface{ SetDropHook(func(*netsim.Packet)) }); ok {
			hooked.SetDropHook(network.ReleaseDropped)
		}
	}

	// Static flows. Construction consumes no randomness (verified by the
	// session differential tests), so each switcher is built owning a
	// placeholder stream; Run restarts it via Reset from the child seed split
	// off the run seed under the flow's label.
	ss.flows = make([]*flowState, len(s.Flows))
	for i := range s.Flows {
		spec := &ss.spec.Flows[i]
		fs := &flowState{class: -1}
		ss.flows[i] = fs

		fs.oneWay = sim.FromMillis(spec.RTTMs / 2)
		fs.fwd = resolveRoute(network, spec.Path)
		fs.rev = resolveRoute(network, spec.ReversePath)
		port, err := network.AttachFlowRoute(unbound, fs.fwd, fs.rev, fs.oneWay)
		if err != nil {
			return nil, err
		}
		fs.port = port

		algo := spec.NewAlgorithm()
		if algo == nil {
			return nil, fmt.Errorf("harness: flow %d NewAlgorithm returned nil", i)
		}
		transport, err := cc.NewTransport(engine, port, algo, mtu)
		if err != nil {
			return nil, err
		}
		port.SetSender(transport)
		fs.transport = transport
		fs.algoName = algo.Name()

		switcher, err := workload.NewSwitcher(spec.Workload, engine, sim.NewRNG(0))
		if err != nil {
			return nil, err
		}
		fs.switcher = switcher

		switcher.OnStart = func(now sim.Time, bytes int64) {
			fs.lastOn = now
			fs.onPeriods++
			transport.StartFlow(now)
		}
		switcher.OnStop = func(now sim.Time) {
			fs.onTime += now - fs.lastOn
			transport.StopFlow(now)
		}
		transport.OnBytesAcked = func(now sim.Time, bytes int64) {
			switcher.BytesDelivered(now, bytes)
		}
	}

	// The churn runtime attaches after every static flow, so static ports
	// keep slots 0..len(flows)-1 and the static RNG split order is unchanged
	// — a churn-free scenario runs the byte-identical event sequence it
	// always has. Its arrival processes likewise own placeholder streams.
	churn, err := newChurnRuntime(&ss.spec, engine, network, mtu)
	if err != nil {
		return nil, err
	}
	ss.churn = churn
	return ss, nil
}

// Engine returns the engine the session runs on.
func (ss *Session) Engine() *sim.Engine { return ss.engine }

// Run executes the scenario once with the given seed. Runs with equal
// scenarios and seeds produce identical results whether executed by a fresh
// session, a warm one, or harness.Run.
func (ss *Session) Run(seed int64) (Result, error) {
	if err := ss.reset(seed); err != nil {
		return Result{}, err
	}

	// Arm everything and run. Queues with an internal control loop (the XCP
	// router) expose Start and are armed alongside the network.
	ss.network.Start(0)
	for _, q := range ss.queues {
		if starter, ok := q.(interface{ Start(now sim.Time) }); ok {
			starter.Start(0)
		}
	}
	for _, fs := range ss.flows {
		fs.switcher.Start(0)
	}
	ss.churn.start(0)
	ss.engine.Run(ss.spec.Duration)
	if ss.churn.err != nil {
		return Result{}, ss.churn.err
	}
	return ss.collect(), nil
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
	ss.churn.reset(ss.root, len(ss.flows))
	return nil
}

// collect gathers the per-flow and per-link metrics of the run just executed.
func (ss *Session) collect() Result {
	network, s := ss.network, &ss.spec
	res := Result{
		Offered:      network.PacketsOffered(),
		Delivered:    network.Link().Delivered(),
		Dropped:      network.PacketsDropped(),
		AcksDropped:  network.AcksDropped(),
		FaultDropped: network.FaultDropped(),
	}
	for _, l := range network.Links() {
		res.Links = append(res.Links, LinkResult{
			Name:           l.Name(),
			Delivered:      l.Delivered(),
			DeliveredBytes: l.DeliveredBytes(),
			Drops:          l.Queue().Drops(),
			FaultDrops:     l.FaultDropped(),
		})
	}
	for i, fs := range ss.flows {
		onTime := fs.onTime
		if fs.switcher.State() == workload.On {
			onTime += s.Duration - fs.lastOn
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
		res.Flows = append(res.Flows, FlowResult{
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
		})
	}
	ss.churn.collect(&res)
	return res
}
