package main

import (
	"fmt"
	"path/filepath"
	"sync"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// layerCounts are the exact counts the traced run takes at the registry's
// boundaries: queue factories and protocol constructors are the only places
// the public API lets a caller stand between the harness and a layer.
type layerCounts struct {
	Events    int64 // Engine.Executed summed over runs
	Enqueued  int64 // packets offered to any queue (data and reverse-path acks)
	Dropped   int64 // packets a queue dropped, at enqueue or dequeue time
	OnAck     int64 // Algorithm.OnAck calls
	OnLoss    int64 // Algorithm.OnLoss calls
	OnTimeout int64 // Algorithm.OnTimeout calls
}

func (c *layerCounts) add(o layerCounts) {
	c.Events += o.Events
	c.Enqueued += o.Enqueued
	c.Dropped += o.Dropped
	c.OnAck += o.OnAck
	c.OnLoss += o.OnLoss
	c.OnTimeout += o.OnTimeout
}

// taps hands out counting decorators and sums them after a pass. Each
// decorator counts in a small block of plain fields touched only by the
// goroutine running its engine; collect reads the blocks after every worker
// of the pass has exited. taps keeps the blocks, never the decorators: holding
// a decorator would pin its whole session in memory until collect.
type taps struct {
	tr      *tracer // the traced run's span sink
	mu      sync.Mutex
	engines map[*sim.Engine]*engineTap
	queues  []*queueCounts
	algos   []*algoCounts
}

type queueCounts struct{ enqueued, dropped int64 }

type algoCounts struct{ onAck, onLoss, onTimeout int64 }

func newTaps(tr *tracer) *taps {
	return &taps{tr: tr, engines: make(map[*sim.Engine]*engineTap)}
}

// tracer returns the span sink, nil for the untraced run's nil taps.
func (t *taps) tracer() *tracer {
	if t == nil {
		return nil
	}
	return t.tr
}

// engineTap reads Engine.Executed between runs. The engine zeroes the counter
// in Reset, and a session resets its queues just before that, so a queue's
// Reset sees the previous run's final count. dirty — set by the first
// enqueue of a run — makes the links of one topology count their shared
// engine once.
type engineTap struct {
	engine *sim.Engine
	dirty  bool
	events int64
}

func (e *engineTap) observe() {
	if e.dirty {
		e.events += int64(e.engine.Executed())
		e.dirty = false
	}
}

// queueTap decorates a stock queue discipline. It forwards the optional
// methods the harness looks for (Reset, SetDropHook, Start) and Marks, so
// the decorated run schedules the byte-identical event sequence.
type queueTap struct {
	inner netsim.Queue
	eng   *engineTap
	c     *queueCounts
}

func (q *queueTap) Enqueue(p *netsim.Packet, now sim.Time) bool {
	q.eng.dirty = true
	q.c.enqueued++
	ok := q.inner.Enqueue(p, now)
	if !ok {
		q.c.dropped++
	}
	return ok
}

func (q *queueTap) Dequeue(now sim.Time) *netsim.Packet { return q.inner.Dequeue(now) }
func (q *queueTap) Len() int                            { return q.inner.Len() }
func (q *queueTap) Bytes() int                          { return q.inner.Bytes() }
func (q *queueTap) Drops() int64                        { return q.inner.Drops() }

func (q *queueTap) Reset() {
	q.eng.observe()
	if r, ok := q.inner.(interface{ Reset() }); ok {
		r.Reset()
	}
}

func (q *queueTap) SetDropHook(fn func(*netsim.Packet)) {
	if h, ok := q.inner.(interface{ SetDropHook(func(*netsim.Packet)) }); ok {
		c := q.c
		h.SetDropHook(func(p *netsim.Packet) {
			c.dropped++
			fn(p)
		})
	}
}

func (q *queueTap) Start(now sim.Time) {
	if s, ok := q.inner.(interface{ Start(sim.Time) }); ok {
		s.Start(now)
	}
}

func (q *queueTap) Marks() int64 {
	if m, ok := q.inner.(interface{ Marks() int64 }); ok {
		return m.Marks()
	}
	return 0
}

// algoTap decorates a congestion-control algorithm; the embedded interface
// forwards everything it does not count.
type algoTap struct {
	cc.Algorithm
	c *algoCounts
}

func (a *algoTap) OnAck(ev cc.AckEvent) {
	a.c.onAck++
	a.Algorithm.OnAck(ev)
}

func (a *algoTap) OnLoss(now sim.Time) {
	a.c.onLoss++
	a.Algorithm.OnLoss(now)
}

func (a *algoTap) OnTimeout(now sim.Time) {
	a.c.onTimeout++
	a.Algorithm.OnTimeout(now)
}

// stamperTap is algoTap for algorithms that annotate outgoing packets (XCP,
// DCTCP): the transport finds PacketStamper by type assertion, so the
// decorator must offer it exactly when the inner algorithm does.
type stamperTap struct {
	*algoTap
	stamper cc.PacketStamper
}

func (s stamperTap) StampPacket(p *netsim.Packet, now sim.Time) { s.stamper.StampPacket(p, now) }

func (t *taps) wrapQueue(inner netsim.Queue, engine *sim.Engine) netsim.Queue {
	t.mu.Lock()
	defer t.mu.Unlock()
	eng := t.engines[engine]
	if eng == nil {
		eng = &engineTap{engine: engine}
		t.engines[engine] = eng
	}
	// A pooled engine arriving from a finished session still shows that
	// session's last run.
	eng.observe()
	q := &queueTap{inner: inner, eng: eng, c: &queueCounts{}}
	t.queues = append(t.queues, q.c)
	return q
}

func (t *taps) wrapNew(inner func() cc.Algorithm) func() cc.Algorithm {
	return func() cc.Algorithm {
		a := &algoTap{Algorithm: inner(), c: &algoCounts{}}
		t.mu.Lock()
		t.algos = append(t.algos, a.c)
		t.mu.Unlock()
		if st, ok := a.Algorithm.(cc.PacketStamper); ok {
			return stamperTap{algoTap: a, stamper: st}
		}
		return a
	}
}

// collect sums and clears every decorator handed out since the last call.
// Call it only after the pass's workers have all exited.
func (t *taps) collect() layerCounts {
	t.mu.Lock()
	defer t.mu.Unlock()
	var c layerCounts
	for _, e := range t.engines {
		e.observe()
		c.Events += e.events
		e.events = 0
	}
	for _, q := range t.queues {
		c.Enqueued += q.enqueued
		c.Dropped += q.dropped
	}
	for _, a := range t.algos {
		c.OnAck += a.onAck
		c.OnLoss += a.onLoss
		c.OnTimeout += a.onTimeout
	}
	t.queues, t.algos = nil, nil
	return c
}

// remyTrees are the shipped rule tables the workloads execute.
type remyTrees struct {
	delta1 *core.WhiskerTree // general-purpose δ=1 table
	deep   *core.WhiskerTree // delta1 split at midpoints: same behaviour, deeper lookups
	dc     *core.WhiskerTree // datacenter table
}

// deepRules is the least number of rules of the split tree: remy_exec (b) and
// the core probes run on it.
const deepRules = 150

func loadRemyTrees() (remyTrees, error) {
	root, err := repoRoot()
	if err != nil {
		return remyTrees{}, err
	}
	var out remyTrees
	if out.delta1, err = core.LoadFile(filepath.Join(root, "assets", "remycc_delta1.json")); err != nil {
		return remyTrees{}, fmt.Errorf("benchmark: %w", err)
	}
	if out.dc, err = core.LoadFile(filepath.Join(root, "assets", "remycc_dc.json")); err != nil {
		return remyTrees{}, fmt.Errorf("benchmark: %w", err)
	}
	if out.deep, err = deepen(out.delta1, deepRules); err != nil {
		return remyTrees{}, err
	}
	return out, nil
}

// deepen splits leaves at their midpoints, last leaf first, until the tree
// has at least min rules. Children inherit their parent's action, so the
// deeper tree maps every memory point to the action the original does: a
// sender running it sends the same packets and only its lookups differ.
func deepen(tree *core.WhiskerTree, min int) (*core.WhiskerTree, error) {
	t := tree.Clone()
	for t.NumWhiskers() < min {
		for i := t.NumWhiskers() - 1; i >= 0 && t.NumWhiskers() < min; i-- {
			w, err := t.Whisker(i)
			if err != nil {
				return nil, err
			}
			if err := t.Split(i, w.Domain.Midpoint()); err != nil {
				return nil, err
			}
		}
	}
	return t, nil
}

// Scheme names the RemyCC tables are registered under.
const (
	schemeRemy     = "remy-d1"
	schemeRemyDeep = "remy-d1-deep"
	schemeRemyDC   = "remy-dc"
)

// buildRegistry returns the registry a workload resolves names against. With
// t nil it is a clone of the default registry plus the RemyCC tables. With
// taps it is a fresh registry holding, under the same names, every default
// protocol, queue and link model behind a counting decorator — the same
// names, because campaign cell IDs (and through them cell seeds) contain the
// scheme name.
func buildRegistry(t *taps, trees remyTrees) (*scenario.Registry, error) {
	remy := []struct {
		name string
		tree *core.WhiskerTree
	}{{schemeRemy, trees.delta1}, {schemeRemyDeep, trees.deep}, {schemeRemyDC, trees.dc}}

	def := scenario.Default()
	if t == nil {
		reg := def.Clone()
		for _, r := range remy {
			if r.tree == nil {
				continue
			}
			if err := reg.RegisterRemy(r.name, r.tree); err != nil {
				return nil, err
			}
		}
		return reg, nil
	}

	reg := scenario.NewRegistry()
	for _, name := range def.Protocols() {
		err := reg.RegisterProtocolFactory(name, func(flow scenario.FlowSpec) (scenario.Protocol, error) {
			p, err := def.Protocol(flow)
			if err != nil {
				return p, err
			}
			p.New = t.wrapNew(p.New)
			return p, nil
		})
		if err != nil {
			return nil, err
		}
	}
	for _, r := range remy {
		tree := r.tree
		if tree == nil {
			continue
		}
		p := scenario.Protocol{Name: r.name, New: t.wrapNew(func() cc.Algorithm { return core.NewSender(tree) })}
		if err := reg.RegisterProtocol(p); err != nil {
			return nil, err
		}
	}
	for _, name := range def.Queues() {
		inner, err := def.Queue(name)
		if err != nil {
			return nil, err
		}
		err = reg.RegisterQueue(name, func(q scenario.QueueSpec, env scenario.QueueEnv) (netsim.Queue, error) {
			queue, err := inner(q, env)
			if err != nil {
				return nil, err
			}
			return t.wrapQueue(queue, env.Engine), nil
		})
		if err != nil {
			return nil, err
		}
	}
	for _, name := range def.LinkModels() {
		m, err := def.LinkModel(name)
		if err != nil {
			return nil, err
		}
		if err := reg.RegisterLinkModel(m); err != nil {
			return nil, err
		}
	}
	return reg, nil
}
