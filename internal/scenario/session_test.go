package scenario

import (
	"slices"
	"testing"

	"repro/internal/workload"
)

// TestTakeFlowOrder pins the order the parts set hands flow apparatus out
// in. A churn class gets the flow it retired last, as from a stack of its
// own, and whatever else is in the set keeps its order: results depend on
// that, since a reused flow's receiver keeps the window ring it grew (see
// netsim.Network.AttachPort). Anything else — a static flow, a class with
// nothing retired — gets the first made of the flows no class owns, never
// another class's, so a world gets the same apparatus whenever it is built.
func TestTakeFlowOrder(t *testing.T) {
	a, b := &churnState{}, &churnState{}
	flows := []*flowState{
		{cs: a, made: 5}, {cs: b, made: 1}, {made: 6}, {cs: a, made: 0}, {cs: b, made: 2}, {cs: b, made: 3},
		{switcher: &workload.Switcher{}, made: 7}, {made: 4},
	}
	p := &parts{flows: slices.Clone(flows), made: len(flows)}
	a.parked, b.parked = 2, 3
	rest := func(skip ...*flowState) []*flowState {
		var out []*flowState
		for _, fs := range flows {
			if !slices.Contains(skip, fs) {
				out = append(out, fs)
			}
		}
		return out
	}
	if got := p.takeFlow(a); got != flows[3] || a.parked != 1 {
		t.Fatalf("class a got flow %p, parked %d; want its last retired, %p, and 1", got, a.parked, flows[3])
	}
	if got := p.takeFlow(b); got != flows[5] {
		t.Fatalf("class b got %p, want its last retired, %p", got, flows[5])
	}
	if !slices.Equal(p.flows, rest(flows[3], flows[5])) {
		t.Fatal("taking a class's flow reordered the rest of the set")
	}
	if got := p.takeFlow(a); got != flows[0] || a.parked != 0 {
		t.Fatalf("class a's second take got %p, want %p", got, flows[0])
	}
	if got := p.takeFlow(nil); got != flows[7] {
		t.Fatalf("a static flow got %p, want the first made no class owns, %p", got, flows[7])
	}
	// With nothing retired, a class takes the first made flow no class owns,
	// never another class's.
	if got := p.takeFlow(a); got != flows[2] {
		t.Fatalf("class a with nothing retired got %p, want the first made unowned, %p", got, flows[2])
	}
	if got := p.takeFlow(a); got != flows[6] {
		t.Fatalf("class a with nothing retired got %p, want the last unowned, %p, not class b's", got, flows[6])
	}
	if got := p.takeFlow(a); got.cs != nil || slices.Contains(flows, got) || got.made != len(flows) || b.parked != 2 {
		t.Fatalf("class a with nothing unowned left got %p (class %p, made %d), b parked %d; want a new flow, made %d, and b's 2 kept",
			got, got.cs, got.made, b.parked, len(flows))
	}
	if !slices.Equal(p.flows, []*flowState{flows[1], flows[4]}) {
		t.Fatal("class b's retired flows did not stay in the set, in order")
	}
}

// TestTrimQueuesPerKind pins the bound on spare queues: the newest twice the
// links of the largest world of each kind are kept, so a run of worlds of one
// kind does not push out another kind's spares.
func TestTrimQueuesPerKind(t *testing.T) {
	q := func(kind string, capacity int) keyedQueue {
		return keyedQueue{key: queueKey{kind: kind, capacity: capacity}}
	}
	p := &parts{maxLinks: 1, queues: []keyedQueue{
		q(QueueDropTail, 1), q(QueueSfqCoDel, 1), q(QueueDropTail, 2), q(QueueSfqCoDel, 2),
		q(QueueDropTail, 3), q(QueueDropTail, 4), q(QueueXCP, 1),
	}}
	p.trimQueues()
	want := []keyedQueue{q(QueueSfqCoDel, 1), q(QueueSfqCoDel, 2), q(QueueDropTail, 3), q(QueueDropTail, 4), q(QueueXCP, 1)}
	if !slices.Equal(p.queues, want) {
		t.Errorf("spares after trimming %v, want %v", p.queues, want)
	}
}
