package harness

import (
	"fmt"

	"repro/internal/cc"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// This file is the dynamic half of the flow population. Static flows (the
// Scenario.Flows list) are permanent members: they attach before the run and
// never detach. Churn classes spawn a flow per arrival and retire it when its
// transfer completes, recycling the whole per-flow apparatus — port,
// transport, algorithm, sender closure — through a per-class pool, so a
// churning steady state allocates only while a pool is still growing toward
// the peak live population. Stale packets of retired flows are fenced off by
// the network's attachment generations (see netsim).

// flowState is one member of the run's flow population. Static flows use the
// switcher fields (on/off offered load); churn flows use the arrival fields
// (one transfer per incarnation) and are recycled through their class pool.
type flowState struct {
	transport *cc.Transport
	port      *netsim.Port
	algoName  string

	// Static-flow state: the on/off switcher and its bookkeeping, plus the
	// resolved routes the session re-attaches the port with on each run.
	switcher  *workload.Switcher
	onTime    sim.Time
	lastOn    sim.Time
	onPeriods int
	fwd, rev  []*netsim.Link
	oneWay    sim.Time

	// Churn-flow state.
	class     int // class index; -1 for static flows
	arrivedAt sim.Time
	remaining int64 // bytes left in the current transfer
	liveIdx   int   // position in the class's live list (swap-remove)
	retired   bool
}

// churnState is one class's runtime: its arrival process, pooled retired
// flow states, live flows, and streaming aggregates.
type churnState struct {
	class *ChurnClass
	index int
	proc  *workload.ArrivalProcess
	// fwd/rev are the class's routes, resolved against the network once at
	// setup and shared by every spawn.
	fwd, rev []*netsim.Link
	oneWay   sim.Time

	pool []*flowState // retired states ready for reuse
	live []*flowState // currently attached flows, swap-removed on retire

	algoName                     string
	spawned, completed, rejected int64
	fct                          *stats.FCTAggregator
	fctSumUs, fctMinUs, fctMaxUs int64
	agg                          cc.Stats
}

// churnRuntime owns every churn class of one run.
type churnRuntime struct {
	engine  *sim.Engine
	network *netsim.Network
	mtu     int
	maxLive int
	live    int // live churn flows across all classes
	classes []*churnState
	err     error // first fatal error; stops the engine
}

// newChurnRuntime builds the arrival processes and per-class state. It must
// run after the static flows have attached, so static ports keep slots
// 0..len(flows)-1.
func newChurnRuntime(s *Scenario, engine *sim.Engine, network *netsim.Network, mtu int) (*churnRuntime, error) {
	maxLive := s.MaxLiveFlows
	if maxLive <= 0 {
		maxLive = DefaultMaxLiveFlows
	}
	rt := &churnRuntime{
		engine:  engine,
		network: network,
		mtu:     mtu,
		maxLive: maxLive,
	}
	for ci := range s.Churn {
		class := &s.Churn[ci]
		cs := &churnState{
			class:  class,
			index:  ci,
			oneWay: sim.FromMillis(class.RTTMs / 2),
			fct:    stats.NewFCTAggregator(),
		}
		cs.fwd = resolveRoute(network, class.Path)
		cs.rev = resolveRoute(network, class.ReversePath)
		probe := class.NewAlgorithm()
		if probe == nil {
			return nil, fmt.Errorf("harness: churn class %d NewAlgorithm returned nil", ci)
		}
		cs.algoName = probe.Name()
		proc, err := workload.NewArrivalProcess(workload.ArrivalSpec{
			Interarrival: class.Interarrival,
			Size:         class.Size,
			MaxArrivals:  class.MaxArrivals,
		}, engine, sim.NewRNG(0))
		if err != nil {
			return nil, fmt.Errorf("harness: churn class %d: %w", ci, err)
		}
		proc.OnArrival = func(now sim.Time, bytes int64) {
			rt.onArrival(cs, now, bytes)
		}
		cs.proc = proc
		rt.classes = append(rt.classes, cs)
	}
	return rt, nil
}

// reset rewinds the runtime for another session run: every flow state —
// still-live ones were already detached by Network.Reset — returns to its
// class pool, aggregates clear, and each class's arrival process restarts its
// random stream from a child seed split off the run's root: churn class ci
// draws child numFlows+ci+1, after the static flows' children, so adding
// churn never perturbs a static scenario.
func (rt *churnRuntime) reset(rootRNG *sim.RNG, numFlows int) {
	rt.live = 0
	rt.err = nil
	for _, cs := range rt.classes {
		cs.pool = append(cs.pool, cs.live...)
		for i := range cs.live {
			cs.live[i] = nil
		}
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

// onArrival spawns one flow of the class, reusing a pooled flow state when
// one is available (the steady-state path, which allocates nothing).
func (rt *churnRuntime) onArrival(cs *churnState, now sim.Time, bytes int64) {
	if rt.err != nil {
		return
	}
	if rt.live >= rt.maxLive {
		cs.rejected++
		return
	}
	var fs *flowState
	if m := len(cs.pool); m > 0 {
		fs = cs.pool[m-1]
		cs.pool[m-1] = nil
		cs.pool = cs.pool[:m-1]
		if err := rt.network.ReattachFlowRoute(fs.port, cs.fwd, cs.rev, cs.oneWay); err != nil {
			rt.fail(fmt.Errorf("harness: churn class %d reattach: %w", cs.index, err))
			return
		}
		fs.transport.ResetStats()
	} else {
		fs = &flowState{class: cs.index}
		port, err := rt.network.AttachFlowRoute(unbound, cs.fwd, cs.rev, cs.oneWay)
		if err != nil {
			rt.fail(fmt.Errorf("harness: churn class %d attach: %w", cs.index, err))
			return
		}
		algo := cs.class.NewAlgorithm()
		if algo == nil {
			rt.fail(fmt.Errorf("harness: churn class %d NewAlgorithm returned nil", cs.index))
			return
		}
		transport, err := cc.NewTransport(rt.engine, port, algo, rt.mtu)
		if err != nil {
			rt.fail(fmt.Errorf("harness: churn class %d: %w", cs.index, err))
			return
		}
		port.SetSender(transport)
		transport.OnBytesAcked = func(at sim.Time, n int64) {
			rt.onBytesAcked(cs, fs, at, n)
		}
		fs.port = port
		fs.transport = transport
		fs.algoName = algo.Name()
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

// retire detaches a live flow and recycles its state into the class pool.
func (rt *churnRuntime) retire(cs *churnState, fs *flowState, now sim.Time) {
	fs.retired = true
	accumulateStats(&cs.agg, fs.transport.Stats())
	fs.transport.StopFlow(now)
	if err := rt.network.DetachFlow(fs.port); err != nil {
		rt.fail(fmt.Errorf("harness: churn class %d detach: %w", cs.index, err))
		return
	}
	// Swap-remove from the live list.
	last := len(cs.live) - 1
	moved := cs.live[last]
	cs.live[fs.liveIdx] = moved
	moved.liveIdx = fs.liveIdx
	cs.live[last] = nil
	cs.live = cs.live[:last]
	cs.pool = append(cs.pool, fs)
	rt.live--
}

// collect folds each class's aggregates — including the flows still live at
// the horizon — into the run result.
func (rt *churnRuntime) collect(res *Result) {
	for _, cs := range rt.classes {
		for _, fs := range cs.live {
			accumulateStats(&cs.agg, fs.transport.Stats())
		}
		res.Churn = append(res.Churn, ChurnResult{
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
		})
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
