package scenario

import (
	"fmt"

	"repro/internal/faults"
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
// the base seed itself, so a single-repetition spec runs with exactly the seed
// it names; later repetitions are mixed through SplitMix64. The base is mixed
// before the repetition index is added so that adjacent base seeds produce
// disjoint repetition streams (naive base+rep would make seed(b, r) collide
// with seed(b+1, r-1)).
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
// RepInvariant and Session.Rebuild iterate, appending the links to links[:0].
// The link/queue form becomes a single delay-free link named
// netsim.BottleneckLink that inherits the spec-level queue.
func (s Spec) lower(links []loweredLink) lowered {
	links = links[:0]
	if s.Topology == nil {
		return lowered{
			links: append(links, loweredLink{
				TopoLinkSpec: TopoLinkSpec{
					Name:           netsim.BottleneckLink,
					RateBps:        s.Link.RateBps,
					Model:          s.Link.Model,
					TraceLoop:      s.Link.TraceLoop,
					XCPCapacityBps: s.Link.XCPCapacityBps,
				},
				trace:  s.Link.Trace,
				faults: s.Faults.schedule(""),
			}),
			path: bottleneckPath,
		}
	}
	for _, l := range s.Topology.Links {
		links = append(links, loweredLink{TopoLinkSpec: l, faults: s.Faults.schedule(l.Name)})
	}
	return lowered{links: links, ackBytes: s.Topology.AckBytes}
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

// resolveSchemes appends the protocol of every flow entry, then of every
// churn class, to dst.
func (s Spec) resolveSchemes(reg *Registry, dst []Protocol) ([]Protocol, error) {
	for i, f := range s.Flows {
		p, err := s.resolveScheme(reg, f)
		if err != nil {
			return dst, fmt.Errorf("scenario: spec %q flow %d: %w", s.Name, i, err)
		}
		dst = append(dst, p)
	}
	if s.Churn != nil {
		for ci, c := range s.Churn.Classes {
			p, err := s.resolveScheme(reg, c.flowSpec())
			if err != nil {
				return dst, fmt.Errorf("scenario: spec %q churn class %d: %w", s.Name, ci, err)
			}
			dst = append(dst, p)
		}
	}
	return dst, nil
}

// QueueKindFor resolves the effective queue kind of the spec: the explicit
// Queue.Kind if set, otherwise the kind implied by the protocols of the flows
// and churn classes. It is an error for two of them to imply different
// router-assisted kinds.
func (s Spec) QueueKindFor(reg *Registry) (string, error) {
	if s.Queue.Kind != "" {
		return s.Queue.Kind, nil
	}
	protos, err := s.resolveSchemes(reg, nil)
	if err != nil {
		return "", err
	}
	return s.queueKind(protos)
}

// queueKind is QueueKindFor over the spec's already resolved protocols.
func (s Spec) queueKind(protos []Protocol) (string, error) {
	if s.Queue.Kind != "" {
		return s.Queue.Kind, nil
	}
	kind := QueueDropTail
	for _, p := range protos {
		pk := p.QueueKind()
		if pk == QueueDropTail {
			continue
		}
		if kind != QueueDropTail && kind != pk {
			return "", fmt.Errorf("scenario: spec %q mixes protocols implying %q and %q queues; set queue.kind explicitly", s.Name, kind, pk)
		}
		kind = pk
	}
	return kind, nil
}

// queueOf returns a link's queue: its own, or, when it declares none at all,
// the spec-level one wholesale (kind and parameters).
func (s Spec) queueOf(l loweredLink) QueueSpec {
	if l.Queue == (QueueSpec{}) {
		return s.Queue
	}
	return l.Queue
}

// RepInvariant reports whether the spec builds the same world for every
// repetition. Only synthesized link traces vary across repetitions (a trace
// *model* generates a fresh trace per rep from a rep-derived seed); fixed-rate
// links and explicit traces are identical for every rep, so the Runner can
// build one reusable Session per spec and vary only the seed.
func (s Spec) RepInvariant() bool {
	for _, l := range s.lower(nil).links {
		if l.synthesized() {
			return false
		}
	}
	return true
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
