package scenario

import (
	"slices"
	"testing"

	"repro/internal/workload"
)

// TestTakeFlowOrder pins the order the parts set hands flow apparatus out
// in, which results depend on: a reused flow's receiver keeps the window ring
// it grew (see netsim.Network.AttachPort). A churn class gets the flow it
// retired last, as from a stack of its own, and whatever else is in the set
// keeps its order; a static flow gets the last one that served a static flow
// before; a class with nothing retired gets the last flow no class owns, never
// another class's.
func TestTakeFlowOrder(t *testing.T) {
	a, b := &churnState{}, &churnState{}
	flows := []*flowState{
		{cs: a}, {cs: b}, {}, {cs: a}, {cs: b}, {cs: b}, {switcher: &workload.Switcher{}}, {},
	}
	p := &parts{flows: slices.Clone(flows)}
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
	if got := p.takeFlow(nil); got != flows[6] {
		t.Fatalf("a static flow got %p, want the one with a switcher, %p", got, flows[6])
	}
	// With nothing retired, a class takes the last flow no class owns, even
	// from under another class's.
	if got := p.takeFlow(a); got != flows[7] {
		t.Fatalf("class a with nothing retired got %p, want the top, %p", got, flows[7])
	}
	if got := p.takeFlow(a); got != flows[2] {
		t.Fatalf("class a with nothing retired got %p, want the last unowned, %p, not class b's", got, flows[2])
	}
	if got := p.takeFlow(a); got.cs != nil || slices.Contains(flows, got) || b.parked != 2 {
		t.Fatalf("class a with nothing unowned left got %p (class %p), b parked %d; want a new flow and b's 2 kept", got, got.cs, b.parked)
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
