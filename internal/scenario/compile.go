package scenario

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/harness"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/traces"
)

// splitmix64 is the SplitMix64 output function: a bijective mixer whose
// outputs pass statistical tests even on sequential inputs. It keeps
// per-repetition seeds decorrelated without any shared state, so seed
// derivation is identical no matter which worker runs which repetition.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// DeriveSeed returns the seed for one repetition of a spec. Repetition 0 uses
// the base seed itself, so a single-repetition spec reproduces a direct
// harness.Run with the same seed; later repetitions are mixed through
// SplitMix64. The base is mixed before the repetition index is added so that
// adjacent base seeds produce disjoint repetition streams (naive base+rep
// would make seed(b, r) collide with seed(b+1, r-1)).
func DeriveSeed(base int64, rep int) int64 {
	if rep == 0 {
		return base
	}
	return int64(splitmix64(splitmix64(uint64(base)) + uint64(rep)))
}

// traceSalt decorrelates the trace generator's stream from the workload
// streams that consume the run seed (ASCII "tracegen").
const traceSalt = 0x747261636567656e

// deriveLinkTraceSeed returns the seed for the synthesized trace of a spec's
// i-th link in one repetition, decorrelating the links' traces from one
// another and from the run seed. Link 0 takes the salted run seed itself, the
// derivation the link/queue form has always used.
func deriveLinkTraceSeed(runSeed int64, link int) int64 {
	seed := splitmix64(uint64(runSeed) ^ traceSalt)
	if link > 0 {
		seed = splitmix64(seed + uint64(link))
	}
	return int64(seed)
}

// lowered is the one world shape below the JSON surface: the links a spec's
// flows route over, whichever of the two JSON forms declared them.
type lowered struct {
	links []loweredLink
	// ackBytes is the topology's reverse-path acknowledgment size.
	ackBytes int
	// path is the route of flows and churn classes that declare none: the
	// single bottleneck of the link/queue form. Nil for topology specs, where
	// Validate requires every route.
	path []string
}

// loweredLink is one link of the lowered world: a topology link as declared,
// or the link/queue form as the one-link topology it is.
type loweredLink struct {
	TopoLinkSpec
	// trace is the link/queue form's explicit programmatic trace
	// (LinkSpec.Trace); it bypasses the model.
	trace []sim.Time
	// faults is the schedule the spec's faults section attaches to the link.
	faults *faults.Schedule
}

// synthesized reports whether the link's service is a trace drawn afresh from
// a registered model each repetition (as opposed to a fixed rate or an
// explicit trace).
func (l loweredLink) synthesized() bool {
	return len(l.trace) == 0 && l.Model != "" && l.Model != "fixed"
}

// bottleneckPath is the route every flow of the link/queue form takes.
var bottleneckPath = []string{netsim.BottleneckLink}

// lower resolves the spec's two JSON forms to the one link list Validate,
// RepInvariant and Compile iterate. The link/queue form becomes a single
// delay-free link named netsim.BottleneckLink that inherits the spec-level
// queue, exactly as netsim.NewNetwork has always built it.
func (s Spec) lower() lowered {
	if s.Topology == nil {
		return lowered{
			links: []loweredLink{{
				TopoLinkSpec: TopoLinkSpec{
					Name:           netsim.BottleneckLink,
					RateBps:        s.Link.RateBps,
					Model:          s.Link.Model,
					TraceLoop:      s.Link.TraceLoop,
					XCPCapacityBps: s.Link.XCPCapacityBps,
				},
				trace:  s.Link.Trace,
				faults: s.Faults.schedule(""),
			}},
			path: bottleneckPath,
		}
	}
	w := lowered{links: make([]loweredLink, len(s.Topology.Links)), ackBytes: s.Topology.AckBytes}
	for i, l := range s.Topology.Links {
		w.links[i] = loweredLink{TopoLinkSpec: l, faults: s.Faults.schedule(l.Name)}
	}
	return w
}

// route returns a flow's declared path, or the lowered world's default.
func (w lowered) route(path []string) []string {
	if len(path) == 0 {
		return w.path
	}
	return path
}

// mtu returns the spec's effective packet size.
func (s Spec) mtu() int {
	if s.MTU <= 0 {
		return netsim.MTU
	}
	return s.MTU
}

// resolveScheme resolves a flow entry (or a churn class adapted to one) to
// its protocol. A programmatic Algorithm bypasses the registry entirely: its
// Scheme is only a label and implies no queue.
func (s Spec) resolveScheme(reg *Registry, f FlowSpec) (Protocol, error) {
	if f.Algorithm != nil {
		return Protocol{Name: f.Scheme, New: f.Algorithm}, nil
	}
	f.specMTU = s.mtu()
	return reg.Protocol(f)
}

// QueueKindFor resolves the effective queue kind of the spec: the explicit
// Queue.Kind if set, otherwise the kind implied by the protocols of the flows
// and churn classes. It is an error for two of them to imply different
// router-assisted kinds.
func (s Spec) QueueKindFor(reg *Registry) (string, error) {
	if s.Queue.Kind != "" {
		return s.Queue.Kind, nil
	}
	kind := QueueDropTail
	imply := func(f FlowSpec) error {
		p, err := s.resolveScheme(reg, f)
		if err != nil {
			return err
		}
		pk := p.QueueKind()
		if pk == QueueDropTail {
			return nil
		}
		if kind != QueueDropTail && kind != pk {
			return fmt.Errorf("scenario: spec %q mixes protocols implying %q and %q queues; set queue.kind explicitly", s.Name, kind, pk)
		}
		kind = pk
		return nil
	}
	for _, f := range s.Flows {
		if err := imply(f); err != nil {
			return "", err
		}
	}
	if s.Churn != nil {
		for _, c := range s.Churn.Classes {
			if err := imply(c.flowSpec()); err != nil {
				return "", err
			}
		}
	}
	return kind, nil
}

// RepInvariant reports whether the spec compiles to the same executable
// scenario for every repetition. Only synthesized link traces vary across
// repetitions (a trace *model* generates a fresh trace per rep from a
// rep-derived seed); fixed-rate links and explicit traces compile
// identically for every rep, so the Runner can build one reusable
// harness.Session per spec and vary only the seed.
func (s Spec) RepInvariant() bool {
	for _, l := range s.lower().links {
		if l.synthesized() {
			return false
		}
	}
	return true
}

// Compile resolves the spec's names against the registry and materializes the
// executable scenario for one repetition, together with the repetition's
// derived seed. Trace-driven link models synthesize a fresh trace per
// repetition from a seed decorrelated with the run seed.
func (s Spec) Compile(reg *Registry, rep int) (harness.Scenario, int64, error) {
	if reg == nil {
		reg = Default()
	}
	w := s.lower()
	if err := s.validate(w); err != nil {
		return harness.Scenario{}, 0, err
	}
	runSeed := DeriveSeed(s.Seed, rep)

	out := harness.Scenario{
		Duration:  s.Duration(),
		MTU:       s.MTU,
		AckBytes:  w.ackBytes,
		OnDeliver: s.OnDeliver,
	}
	if err := s.compileLinks(reg, runSeed, w, &out); err != nil {
		return harness.Scenario{}, 0, err
	}
	if err := s.compileFlows(reg, w, &out); err != nil {
		return harness.Scenario{}, 0, err
	}
	if err := s.compileChurn(reg, w, &out); err != nil {
		return harness.Scenario{}, 0, err
	}
	return out, runSeed, nil
}

// compileFlows expands flow counts and resolves schemes into the executable
// scenario, routing every flow over the lowered world.
func (s Spec) compileFlows(reg *Registry, w lowered, out *harness.Scenario) error {
	for i, f := range s.Flows {
		p, err := s.resolveScheme(reg, f)
		if err != nil {
			return fmt.Errorf("scenario: spec %q flow %d: %w", s.Name, i, err)
		}
		wl, err := f.Workload.Compile()
		if err != nil {
			return fmt.Errorf("scenario: spec %q flow %d (%s): %w", s.Name, i, p.Name, err)
		}
		count := f.Count
		if count < 1 {
			count = 1
		}
		for c := 0; c < count; c++ {
			out.Flows = append(out.Flows, harness.FlowSpec{
				RTTMs:        f.RTTMs,
				Workload:     wl,
				NewAlgorithm: p.New,
				Path:         w.route(f.Path),
				ReversePath:  f.ReversePath,
			})
		}
	}
	return nil
}

// resolveLinkService resolves one link's service description — explicit
// trace > trace model > fixed rate — and the capacity estimate for
// rate-aware queues (explicit override, then the fixed rate, then the
// trace's long-term average).
func (s Spec) resolveLinkService(reg *Registry, l loweredLink, traceSeed int64) (trace []sim.Time, capacityBps float64, err error) {
	packetBytes := s.mtu()
	switch {
	case len(l.trace) > 0:
		trace = l.trace
	case l.synthesized():
		m, err := reg.LinkModel(l.Model)
		if err != nil {
			return nil, 0, err
		}
		tr, err := m.Generate(s.Duration(), sim.NewRNG(traceSeed))
		if err != nil {
			return nil, 0, fmt.Errorf("scenario: spec %q link %q model %q: %w", s.Name, l.Name, l.Model, err)
		}
		trace = tr
		if m.PacketBytes > 0 {
			packetBytes = m.PacketBytes
		}
	}
	capacityBps = l.XCPCapacityBps
	if capacityBps <= 0 && len(trace) == 0 {
		capacityBps = l.RateBps
	}
	if capacityBps <= 0 && len(trace) > 0 {
		capacityBps = traces.AverageRateBps(trace, packetBytes, s.Duration())
	}
	return trace, capacityBps, nil
}

// compileLinks materializes the lowered links: per-link trace synthesis
// (decorrelated across links), queue-kind resolution (the link's own queue,
// else the spec-level one, with the kind the flows imply as the final
// fallback) and per-link capacity estimates for rate-aware queues. Queues are
// resolved through the registry and built per run, so a new AQM is a registry
// entry rather than a harness change.
func (s Spec) compileLinks(reg *Registry, runSeed int64, w lowered, out *harness.Scenario) error {
	out.Links = make([]harness.LinkDef, 0, len(w.links))
	defaultKind := ""
	for li, l := range w.links {
		trace, capacityBps, err := s.resolveLinkService(reg, l, deriveLinkTraceSeed(runSeed, li))
		if err != nil {
			return err
		}
		// A link that declares no queue at all inherits the spec-level Queue
		// wholesale (kind and parameters); a kindless queue falls back to the
		// kind the spec's flows imply.
		queueSpec := l.Queue
		if queueSpec == (QueueSpec{}) {
			queueSpec = s.Queue
		}
		kind := queueSpec.Kind
		if kind == "" {
			if defaultKind == "" {
				k, err := s.QueueKindFor(reg)
				if err != nil {
					return err
				}
				defaultKind = k
			}
			kind = defaultKind
		}
		factory, err := reg.Queue(kind)
		if err != nil {
			return err
		}
		out.Links = append(out.Links, harness.LinkDef{
			Name:      l.Name,
			RateBps:   l.RateBps,
			Trace:     trace,
			TraceLoop: l.TraceLoop,
			DelayMs:   l.DelayMs,
			Faults:    l.faults,
			NewQueue: func(engine *sim.Engine) (netsim.Queue, error) {
				return factory(queueSpec, QueueEnv{Engine: engine, CapacityBps: capacityBps})
			},
			QueueKey: reg.queueKey(kind, queueSpec, capacityBps),
		})
	}
	return nil
}
