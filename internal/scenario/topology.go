package scenario

import (
	"fmt"
)

// NodeSpec names one node of a topology.
type NodeSpec struct {
	Name string `json:"name"`
}

// TopoLinkSpec describes one directed link of a topology. Every link owns its
// own service model (a fixed rate or a registered trace model), one-way
// propagation delay, and queue discipline.
type TopoLinkSpec struct {
	// Name identifies the link in flow paths.
	Name string `json:"name"`
	// From and To name the link's endpoint nodes.
	From string `json:"from"`
	To   string `json:"to"`
	// RateBps is the service rate for fixed-rate links. Ignored when Model is
	// set.
	RateBps float64 `json:"rate_bps,omitempty"`
	// Model selects a registered trace-driven link model ("verizon", "att"); a
	// fresh trace is synthesized per repetition, decorrelated per link.
	Model string `json:"model,omitempty"`
	// TraceLoop repeats a synthesized trace when the run outlasts it.
	TraceLoop bool `json:"trace_loop,omitempty"`
	// DelayMs is the link's one-way propagation delay in milliseconds.
	DelayMs float64 `json:"delay_ms,omitempty"`
	// Queue is the link's queue discipline. An empty kind follows the spec's
	// flows the same way the single-bottleneck form does (the kind implied by
	// the protocols, DropTail otherwise).
	Queue QueueSpec `json:"queue,omitempty"`
	// XCPCapacityBps overrides the capacity advertised to an XCP queue on
	// this link; defaults to the fixed rate or the trace's long-term average.
	XCPCapacityBps float64 `json:"xcp_capacity_bps,omitempty"`
}

// TopologySpec is the declarative, JSON-round-trippable description of a
// directed-graph topology: named nodes joined by links, with flows routed
// over them via FlowSpec.Path/ReversePath.
type TopologySpec struct {
	// Nodes lists the topology's nodes.
	Nodes []NodeSpec `json:"nodes"`
	// Links lists the directed links.
	Links []TopoLinkSpec `json:"links"`
	// AckBytes is the acknowledgment packet size on reverse-path links;
	// 0 means the simulator default (40 bytes).
	AckBytes int `json:"ack_bytes,omitempty"`
}

// Link returns the named link spec and whether it exists.
func (t *TopologySpec) Link(name string) (TopoLinkSpec, bool) {
	for _, l := range t.Links {
		if l.Name == name {
			return l, true
		}
	}
	return TopoLinkSpec{}, false
}

// Validate reports structural errors in the topology itself: missing or
// duplicate names, links dangling off undeclared nodes and self-loops. Flow
// routes and the links' service and queue parameters are validated by
// Spec.Validate, which knows the flows and checks both JSON forms' links in one
// place.
func (t *TopologySpec) Validate(specName string) error {
	if len(t.Nodes) == 0 {
		return fmt.Errorf("scenario: spec %q topology has no nodes", specName)
	}
	nodes := make(map[string]bool, len(t.Nodes))
	for i, n := range t.Nodes {
		if n.Name == "" {
			return fmt.Errorf("scenario: spec %q topology node %d has no name", specName, i)
		}
		if nodes[n.Name] {
			return fmt.Errorf("scenario: spec %q topology declares node %q twice", specName, n.Name)
		}
		nodes[n.Name] = true
	}
	if len(t.Links) == 0 {
		return fmt.Errorf("scenario: spec %q topology has no links", specName)
	}
	links := make(map[string]bool, len(t.Links))
	for i, l := range t.Links {
		if l.Name == "" {
			return fmt.Errorf("scenario: spec %q topology link %d has no name", specName, i)
		}
		if links[l.Name] {
			return fmt.Errorf("scenario: spec %q topology declares link %q twice", specName, l.Name)
		}
		links[l.Name] = true
		if !nodes[l.From] {
			return fmt.Errorf("scenario: spec %q link %q dangles from undeclared node %q", specName, l.Name, l.From)
		}
		if !nodes[l.To] {
			return fmt.Errorf("scenario: spec %q link %q dangles to undeclared node %q", specName, l.Name, l.To)
		}
		if l.From == l.To {
			return fmt.Errorf("scenario: spec %q link %q is a self-loop on node %q", specName, l.Name, l.From)
		}
		if l.DelayMs < 0 {
			return fmt.Errorf("scenario: spec %q link %q has negative delay", specName, l.Name)
		}
	}
	if t.AckBytes < 0 {
		return fmt.Errorf("scenario: spec %q topology has negative ack_bytes", specName)
	}
	return nil
}

// validateRoutes checks the routes of every route owner of the spec, its flows
// and then its churn classes. Without a topology no owner may route over
// links (the link/queue form routes everything over its one bottleneck). With
// one, every owner needs a path; the path must be connected and acyclic; a
// non-empty reverse path must likewise be well-formed and must lead from the
// path's destination back to its source.
func (s Spec) validateRoutes() error {
	check := func(owner string, i int, path, reverse []string) error {
		if s.Topology != nil {
			return s.Topology.validatePathPair(s.Name, owner, i, path, reverse)
		}
		if len(path) > 0 || len(reverse) > 0 {
			return fmt.Errorf("scenario: spec %q %s %d routes over links but the spec has no topology", s.Name, owner, i)
		}
		return nil
	}
	for i, f := range s.Flows {
		if err := check("flow", i, f.Path, f.ReversePath); err != nil {
			return err
		}
	}
	if s.Churn != nil {
		for ci, c := range s.Churn.Classes {
			if err := check("churn class", ci, c.Path, c.ReversePath); err != nil {
				return err
			}
		}
	}
	return nil
}

// validatePathPair checks the (path, reverse path) pair of route owner i
// ("flow", "churn class") against the topology.
func (t *TopologySpec) validatePathPair(specName, owner string, i int, path, reverse []string) error {
	if len(path) == 0 {
		return fmt.Errorf("scenario: spec %q %s %d has no path through the topology", specName, owner, i)
	}
	src, dst, err := t.validateRoute(specName, owner, i, "path", path)
	if err != nil {
		return err
	}
	if len(reverse) == 0 {
		return nil
	}
	rsrc, rdst, err := t.validateRoute(specName, owner, i, "reverse path", reverse)
	if err != nil {
		return err
	}
	if rsrc != dst || rdst != src {
		return fmt.Errorf("scenario: spec %q %s %d reverse path runs %s→%s, want %s→%s", specName, owner, i, rsrc, rdst, dst, src)
	}
	return nil
}

// validateRoute checks that a route of owner i is connected (each link starts
// where the previous one ended) and acyclic (no node is visited twice). It
// returns the route's endpoints.
func (t *TopologySpec) validateRoute(specName, owner string, i int, kind string, route []string) (from, to string, err error) {
	visited := make(map[string]bool, len(route)+1)
	for hop, name := range route {
		l, ok := t.Link(name)
		if !ok {
			return "", "", fmt.Errorf("scenario: spec %q %s %d %s references unknown link %q", specName, owner, i, kind, name)
		}
		if hop == 0 {
			from = l.From
			visited[l.From] = true
		} else if l.From != to {
			return "", "", fmt.Errorf("scenario: spec %q %s %d %s is disconnected: link %q starts at %q, previous hop ended at %q", specName, owner, i, kind, name, l.From, to)
		}
		if visited[l.To] {
			return "", "", fmt.Errorf("scenario: spec %q %s %d %s has a cycle: node %q visited twice", specName, owner, i, kind, l.To)
		}
		visited[l.To] = true
		to = l.To
	}
	return from, to, nil
}
