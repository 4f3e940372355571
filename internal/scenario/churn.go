package scenario

import (
	"fmt"

	"repro/internal/cc"
	"repro/internal/harness"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// ChurnClassSpec is the declarative form of one dynamically arriving flow
// class: an interarrival distribution (exponential = Poisson arrivals,
// constant = deterministic train), a flow-size distribution (ICSIDist for the
// paper's trace-fitted sizes), and the scheme/path every spawned flow uses.
type ChurnClassSpec struct {
	// Scheme names a registered protocol, exactly as in FlowSpec.
	Scheme string `json:"scheme"`
	// RemyCC is the rule-table JSON path for file-driven "remy" classes.
	RemyCC string `json:"remycc,omitempty"`
	// RateBps is the send rate for the unresponsive "cbr" scheme.
	RateBps float64 `json:"rate_bps,omitempty"`
	// RTTMs is the flows' two-way access propagation delay in milliseconds.
	RTTMs float64 `json:"rtt_ms"`
	// Interarrival is the distribution of gaps between arrivals, in seconds.
	Interarrival DistSpec `json:"interarrival"`
	// Size is the distribution of per-flow transfer sizes, in bytes.
	Size DistSpec `json:"size"`
	// MaxArrivals stops the class after that many arrivals (0 = unlimited).
	MaxArrivals int64 `json:"max_arrivals,omitempty"`
	// Path and ReversePath route spawned flows across the spec's Topology,
	// exactly as in FlowSpec. Required with a topology; forbidden without.
	Path        []string `json:"path,omitempty"`
	ReversePath []string `json:"reverse_path,omitempty"`

	// Algorithm, when set, overrides the registry lookup with a programmatic
	// constructor. Not part of the JSON form. A retired flow's apparatus,
	// algorithm included (it is Reset at each spawn), is reused by the
	// class's later arrivals in the same world, so the constructor runs about
	// once per concurrently live flow, not once per arrival.
	Algorithm func() cc.Algorithm `json:"-"`
}

// flowSpec adapts the class to the FlowSpec shape scheme resolution expects.
func (c ChurnClassSpec) flowSpec() FlowSpec {
	return FlowSpec{Scheme: c.Scheme, RemyCC: c.RemyCC, RateBps: c.RateBps, Algorithm: c.Algorithm}
}

// ChurnSpec is the declarative churn section of a Spec: the arriving flow
// classes plus the cap on the concurrently live population.
type ChurnSpec struct {
	// Classes lists the arriving flow classes.
	Classes []ChurnClassSpec `json:"classes"`
	// MaxLiveFlows caps the live churn population across all classes;
	// arrivals beyond the cap are rejected (counted per class, not deferred).
	// Static flows do not count against it. 0 means defaultMaxLiveFlows.
	MaxLiveFlows int `json:"max_live_flows,omitempty"`
}

// defaultMaxLiveFlows is the churn population cap when the spec does not set
// one: large enough for heavy offered loads, small enough that an overload
// cannot grow state without bound.
const defaultMaxLiveFlows = 1024

// validate reports structural errors in the churn section. Route validation
// against a topology happens in Spec.Validate, which knows the topology.
func (cs *ChurnSpec) validate(specName string) error {
	if len(cs.Classes) == 0 {
		return fmt.Errorf("scenario: spec %q churn section has no classes", specName)
	}
	if cs.MaxLiveFlows < 0 {
		return fmt.Errorf("scenario: spec %q churn has negative max_live_flows", specName)
	}
	for ci, c := range cs.Classes {
		if c.Scheme == "" && c.Algorithm == nil {
			return fmt.Errorf("scenario: spec %q churn class %d has no scheme", specName, ci)
		}
		if c.RTTMs < 0 {
			return fmt.Errorf("scenario: spec %q churn class %d has negative RTT", specName, ci)
		}
		if c.MaxArrivals < 0 {
			return fmt.Errorf("scenario: spec %q churn class %d has negative max_arrivals", specName, ci)
		}
		if err := c.Interarrival.Validate(); err != nil {
			return fmt.Errorf("scenario: spec %q churn class %d interarrival: %w", specName, ci, err)
		}
		if err := c.Size.Validate(); err != nil {
			return fmt.Errorf("scenario: spec %q churn class %d size: %w", specName, ci, err)
		}
	}
	return nil
}

// WithChurn sets the spec's churn section.
func WithChurn(churn ChurnSpec) Option {
	return func(s *Spec) { s.Churn = &churn }
}

// The rest of this file is the session's flow population. Static flows (the
// spec's Flows) are permanent members: they attach before the run and never
// detach. Churn classes spawn a flow per arrival and retire it when its
// transfer completes, returning the whole per-flow apparatus — port,
// transport, algorithm — to the session's parts set, from which the next
// arrival of the class takes it back; a churning steady state allocates only
// while the set is still growing toward the peak live population. Stale
// packets of retired flows are fenced off by the network's attachment
// generations (see netsim).

// flowState is one member of the run's flow population, and between worlds
// one flow apparatus in the session's parts set. Static flows use the
// switcher fields (on/off offered load); churn flows use the arrival fields
// (one transfer per incarnation).
type flowState struct {
	transport *cc.Transport
	port      *netsim.Port
	algoName  string
	// spareKey is the key the transport's algorithm goes back to the parts
	// set under when the world is dismantled (see Protocol.spareKey): empty
	// when it is neither a stock protocol's nor a RemyCC's, or not this
	// flow's own any more.
	spareKey string
	// bytesAcked is onBytesAcked bound to the flow, made once with the flow
	// state and installed on every transport the flow is bound to.
	bytesAcked func(now sim.Time, bytes int64)
	// made numbers the apparatus in the order its session made them (see
	// parts.takeFlow).
	made int

	// Static-flow state: the on/off switcher and its bookkeeping, plus the
	// resolved routes the session re-attaches the port with on each run. A
	// flow state keeps its switcher, stream included, for whichever static
	// flow uses it next.
	switcher  *workload.Switcher
	onTime    sim.Time
	lastOn    sim.Time
	onPeriods int
	fwd, rev  []*netsim.Link
	oneWay    sim.Time

	// Churn-flow state. cs is the class the flow belongs to, nil for static
	// flows and for flow states in the parts set whose algorithm no class of
	// the current world built.
	cs        *churnState
	arrivedAt sim.Time
	remaining int64 // bytes left in the current transfer
	liveIdx   int   // position in the class's live list (swap-remove)
	retired   bool

	// on and off hold the distributions a static flow's switcher draws
	// from. They come last, away from the fields every acknowledgment reads
	// (onBytesAcked), which they would otherwise spread over more cache
	// lines.
	on, off distBox
}

// attach attaches the flow's port, as a new flow's, over the given routes,
// making the port when the flow state has none yet.
func (fs *flowState) attach(network *netsim.Network, fwd, rev []*netsim.Link, oneWay sim.Time) error {
	if fs.port == nil {
		port, err := network.AttachFlowRoute(unbound, fwd, rev, oneWay)
		if err != nil {
			return err
		}
		fs.port = port
		return nil
	}
	return network.AttachPort(fs.port, fwd, rev, oneWay)
}

// bind gives the attached flow a transport running algo: its own transport
// re-bound, or a new one bound as its port's sender.
func (fs *flowState) bind(engine *sim.Engine, algo cc.Algorithm, mtu int) error {
	if fs.transport == nil {
		transport, err := cc.NewTransport(engine, fs.port, algo, mtu)
		if err != nil {
			return err
		}
		fs.port.SetSender(transport)
		fs.transport = transport
	} else if err := fs.transport.Rebind(fs.port, algo, mtu); err != nil {
		return err
	}
	fs.transport.OnBytesAcked = fs.bytesAcked
	return nil
}

// switchedOn and switchedOff are the static flow's switcher callbacks.
func (fs *flowState) switchedOn(now sim.Time, bytes int64) {
	fs.lastOn = now
	fs.onPeriods++
	fs.transport.StartFlow(now)
}

func (fs *flowState) switchedOff(now sim.Time) {
	fs.onTime += now - fs.lastOn
	fs.transport.StopFlow(now)
}

// onBytesAcked feeds newly acknowledged bytes to whatever ends the flow's
// transfers: its churn class, or its switcher.
//
//repo:hotpath per-ack transfer accounting
func (fs *flowState) onBytesAcked(now sim.Time, bytes int64) {
	if fs.cs != nil {
		fs.cs.rt.onBytesAcked(fs.cs, fs, now, bytes)
		return
	}
	fs.switcher.BytesDelivered(now, bytes)
}

// churnState is one class's runtime: its arrival process and the
// distributions it draws from, live flows, and streaming aggregates.
type churnState struct {
	rt    *churnRuntime
	index int
	// proto is the class's resolved protocol.
	proto Protocol
	proc  *workload.ArrivalProcess
	// fwd/rev are the class's routes, resolved against the network once at
	// setup and shared by every spawn.
	fwd, rev []*netsim.Link
	oneWay   sim.Time

	live []*flowState // currently attached flows, swap-removed on retire
	// parked counts the flows the class has retired to the parts set in this
	// world; probe is the algorithm taken to learn the class's scheme name,
	// unused, and spent on the first flow that needs one.
	parked int
	probe  cc.Algorithm

	algoName                     string
	spawned, completed, rejected int64
	fct                          *stats.FCTAggregator
	fctSumUs, fctMinUs, fctMaxUs int64
	agg                          cc.Stats

	// interarrival and size hold the distributions proc draws from.
	interarrival, size distBox
}

// churnRuntime owns every churn class of one world.
type churnRuntime struct {
	engine  *sim.Engine
	network *netsim.Network
	parts   *parts
	mtu     int
	maxLive int
	live    int // live churn flows across all classes
	classes []*churnState
	err     error // first fatal error; stops the engine
}

// assemble builds the arrival processes and per-class state of the spec's
// churn classes, whose resolved protocols are protos, out of the parts set
// where it can. It must run after the static flows have attached, so static
// ports keep slots 0..len(flows)-1.
func (rt *churnRuntime) assemble(ss *Session, spec *Spec, w lowered, protos []Protocol) error {
	rt.engine, rt.network, rt.parts = ss.engine, ss.network, &ss.parts
	rt.mtu, rt.maxLive = ss.mtu, defaultMaxLiveFlows
	rt.live, rt.err = 0, nil
	if spec.Churn == nil {
		return nil
	}
	if spec.Churn.MaxLiveFlows > 0 {
		rt.maxLive = spec.Churn.MaxLiveFlows
	}
	for ci := range spec.Churn.Classes {
		c := &spec.Churn.Classes[ci]
		cs := take(&rt.parts.classes)
		if cs == nil {
			cs = &churnState{rt: rt, fct: stats.NewFCTAggregator()}
		}
		rt.classes = append(rt.classes, cs)
		cs.index, cs.proto = ci, protos[ci]
		cs.oneWay = sim.FromMillis(c.RTTMs / 2)
		cs.fwd = appendRoute(cs.fwd[:0], rt.network, w.route(c.Path))
		cs.rev = appendRoute(cs.rev[:0], rt.network, c.ReversePath)
		probe := rt.parts.algorithm(cs.proto)
		if probe == nil {
			return fmt.Errorf("scenario: spec %q churn class %d: scheme %q built no algorithm", spec.Name, ci, protos[ci].Name)
		}
		cs.algoName, cs.probe = probe.Name(), probe
		arrivals := workload.ArrivalSpec{
			Interarrival: c.Interarrival.compile(&cs.interarrival),
			Size:         c.Size.compile(&cs.size),
			MaxArrivals:  c.MaxArrivals,
		}
		if cs.proc == nil {
			proc, err := workload.NewArrivalProcess(arrivals, rt.engine, sim.NewRNG(0))
			if err != nil {
				return err
			}
			proc.OnArrival = cs.arrived
			cs.proc = proc
		} else if err := cs.proc.SetSpec(arrivals); err != nil {
			return err
		}
	}
	return nil
}

// dismantle returns every class, every flow still live and every unused
// probe to the parts set.
func (rt *churnRuntime) dismantle(p *parts) {
	for _, cs := range rt.classes {
		p.flows = append(p.flows, cs.live...)
		clear(cs.live)
		cs.live = cs.live[:0]
		p.putAlgorithm(cs.proto.spareKey(), cs.probe)
		cs.proto, cs.probe, cs.parked = Protocol{}, nil, 0
		p.classes = append(p.classes, cs)
	}
	clear(rt.classes)
	rt.classes = rt.classes[:0]
}

// reset rewinds the runtime for another session run: every flow still live —
// already detached by Network.Reset — goes back to the parts set, still its
// class's, aggregates clear, and each class's arrival process restarts its
// random stream from a child seed split off the run's root: churn class ci
// draws child numFlows+ci+1, after the static flows' children, so adding
// churn never perturbs a static world.
func (rt *churnRuntime) reset(rootRNG *sim.RNG, numFlows int, p *parts) {
	rt.live = 0
	rt.err = nil
	for _, cs := range rt.classes {
		p.flows = append(p.flows, cs.live...)
		cs.parked += len(cs.live)
		clear(cs.live)
		cs.live = cs.live[:0]
		cs.spawned = 0
		cs.completed = 0
		cs.rejected = 0
		cs.fct.Reset()
		cs.fctSumUs = 0
		cs.fctMinUs = 0
		cs.fctMaxUs = 0
		cs.agg = cc.Stats{}
		cs.proc.Reset(rootRNG.SplitSeed(int64(numFlows) + int64(cs.index) + 1))
	}
}

// start arms every class's arrival process.
func (rt *churnRuntime) start(now sim.Time) {
	for _, cs := range rt.classes {
		cs.proc.Start(now)
	}
}

// fail records the first fatal error and stops the simulation.
func (rt *churnRuntime) fail(err error) {
	if rt.err == nil {
		rt.err = err
		rt.engine.Stop()
	}
}

// arrived is the class's arrival callback.
func (cs *churnState) arrived(now sim.Time, bytes int64) { cs.rt.onArrival(cs, now, bytes) }

// onArrival spawns one flow of the class, reusing one the class retired
// earlier when there is one (the steady-state path, which allocates nothing).
func (rt *churnRuntime) onArrival(cs *churnState, now sim.Time, bytes int64) {
	if rt.err != nil {
		return
	}
	if rt.live >= rt.maxLive {
		cs.rejected++
		return
	}
	fs := rt.parts.takeFlow(cs)
	if fs.cs == cs {
		if err := rt.network.ReattachFlowRoute(fs.port, cs.fwd, cs.rev, cs.oneWay); err != nil {
			rt.fail(fmt.Errorf("scenario: churn class %d reattach: %w", cs.index, err))
			return
		}
		fs.transport.ResetStats()
	} else {
		algo := cs.probe
		cs.probe = nil
		if algo == nil {
			algo = rt.parts.algorithm(cs.proto)
		}
		if algo == nil {
			rt.parts.flows = append(rt.parts.flows, fs)
			rt.fail(fmt.Errorf("scenario: churn class %d: its scheme built no algorithm", cs.index))
			return
		}
		if err := fs.attach(rt.network, cs.fwd, cs.rev, cs.oneWay); err != nil {
			rt.fail(fmt.Errorf("scenario: churn class %d attach: %w", cs.index, err))
			return
		}
		if err := fs.bind(rt.engine, algo, rt.mtu); err != nil {
			rt.fail(fmt.Errorf("scenario: churn class %d: %w", cs.index, err))
			return
		}
		fs.cs = cs
		fs.algoName, fs.spareKey = cs.algoName, cs.proto.spareKey()
	}
	fs.retired = false
	fs.arrivedAt = now
	fs.remaining = bytes
	fs.liveIdx = len(cs.live)
	cs.live = append(cs.live, fs)
	cs.spawned++
	rt.live++
	fs.transport.StartFlow(now)
}

// onBytesAcked advances a churn flow's transfer and retires it on completion.
func (rt *churnRuntime) onBytesAcked(cs *churnState, fs *flowState, now sim.Time, n int64) {
	if fs.retired {
		return
	}
	fs.remaining -= n
	if fs.remaining > 0 {
		return
	}
	fct := now - fs.arrivedAt
	cs.fct.Observe(fct.Seconds())
	cs.fctSumUs += int64(fct)
	if cs.completed == 0 || int64(fct) < cs.fctMinUs {
		cs.fctMinUs = int64(fct)
	}
	if int64(fct) > cs.fctMaxUs {
		cs.fctMaxUs = int64(fct)
	}
	cs.completed++
	rt.retire(cs, fs, now)
}

// retire detaches a live flow and returns it to the parts set, still the
// class's.
func (rt *churnRuntime) retire(cs *churnState, fs *flowState, now sim.Time) {
	fs.retired = true
	accumulateStats(&cs.agg, fs.transport.Stats())
	fs.transport.StopFlow(now)
	if err := rt.network.DetachFlow(fs.port); err != nil {
		rt.fail(fmt.Errorf("scenario: churn class %d detach: %w", cs.index, err))
		return
	}
	// Swap-remove from the live list.
	last := len(cs.live) - 1
	moved := cs.live[last]
	cs.live[fs.liveIdx] = moved
	moved.liveIdx = fs.liveIdx
	cs.live[last] = nil
	cs.live = cs.live[:last]
	rt.parts.flows = append(rt.parts.flows, fs)
	cs.parked++
	rt.live--
}

// collect folds each class's aggregates — including the flows still live at
// the horizon — into out, one entry per class.
func (rt *churnRuntime) collect(out []harness.ChurnResult) {
	for i, cs := range rt.classes {
		for _, fs := range cs.live {
			accumulateStats(&cs.agg, fs.transport.Stats())
		}
		out[i] = harness.ChurnResult{
			Class:     cs.index,
			Algorithm: cs.algoName,
			Spawned:   cs.spawned,
			Completed: cs.completed,
			Rejected:  cs.rejected,
			FCT:       cs.fct.Summary(),
			FCTSumUs:  cs.fctSumUs,
			FCTMinUs:  cs.fctMinUs,
			FCTMaxUs:  cs.fctMaxUs,
			Transport: cs.agg,
		}
	}
}

// accumulateStats folds one flow incarnation's transport counters into a
// class aggregate: counters add, RTT extremes combine.
func accumulateStats(dst *cc.Stats, st cc.Stats) {
	dst.PacketsSent += st.PacketsSent
	dst.Retransmissions += st.Retransmissions
	dst.LossEvents += st.LossEvents
	dst.Timeouts += st.Timeouts
	dst.BytesAcked += st.BytesAcked
	dst.AcksReceived += st.AcksReceived
	dst.RTTSum += st.RTTSum
	dst.RTTSamples += st.RTTSamples
	if st.MinRTT > 0 && (dst.MinRTT == 0 || st.MinRTT < dst.MinRTT) {
		dst.MinRTT = st.MinRTT
	}
	if st.MaxRTT > dst.MaxRTT {
		dst.MaxRTT = st.MaxRTT
	}
}
