package scenario

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
)

// remySenders returns every RemyCC sender the session's world holds: its
// static flows', its churn classes' live flows' and unused probes', and the
// flows its classes retired in this world.
func remySenders(t *testing.T, ss *Session) []*core.Sender {
	t.Helper()
	var out []*core.Sender
	add := func(a any) {
		s, ok := a.(*core.Sender)
		if !ok {
			t.Fatalf("a flow of a RemyCC world runs %T", a)
		}
		out = append(out, s)
	}
	for _, fs := range ss.flows {
		add(fs.transport.Algorithm())
	}
	for _, cs := range ss.churn.classes {
		for _, fs := range cs.live {
			add(fs.transport.Algorithm())
		}
		if cs.probe != nil {
			add(cs.probe)
		}
	}
	for _, fs := range ss.parts.flows {
		if fs.cs != nil {
			add(fs.transport.Algorithm())
		}
	}
	return out
}

// TestRemySendersKeepTheirRegistrysTree: two registries register one RemyCC
// name with different rule tables. A session rebuilt from one registry's
// world to the other's, and the pool's workers, which cross from one runner
// to the next through the process-wide free list, reuse their senders across
// both — and must bind every one to the table of the registry that resolved
// its world, never the other's, and give what a new session gives.
func TestRemySendersKeepTheirRegistrysTree(t *testing.T) {
	trees := []*core.WhiskerTree{
		core.NewWhiskerTree(core.Action{WindowMultiple: 1, WindowIncrement: 1, IntersendMs: 2}),
		core.NewWhiskerTree(core.Action{WindowMultiple: 1, WindowIncrement: 3, IntersendMs: 0.2}),
	}
	regs := make([]*Registry, len(trees))
	for i, tree := range trees {
		regs[i] = Default().Clone()
		if err := regs[i].RegisterRemy("remy-shared", tree); err != nil {
			t.Fatal(err)
		}
	}
	w := ByBytesWorkload(ExponentialDist(150_000), ExponentialDist(0.05))
	spec := New(WithLink(10e6), WithDuration(1), WithSeed(5), WithRepetitions(2),
		WithFlows(3, "remy-shared", 40, w),
		WithChurn(ChurnSpec{MaxLiveFlows: 8, Classes: []ChurnClassSpec{{
			Scheme: "remy-shared", RTTMs: 30, Interarrival: ExponentialDist(0.05), Size: ExponentialDist(30_000),
		}}}))

	fresh := make([]harness.Result, len(regs))
	for i, reg := range regs {
		var ss Session
		if err := ss.Rebuild(reg, &spec, 0); err != nil {
			t.Fatal(err)
		}
		var err error
		if fresh[i], err = ss.Run(spec.Seed); err != nil {
			t.Fatal(err)
		}
	}
	if reflect.DeepEqual(fresh[0], fresh[1]) {
		t.Fatal("the two tables give the same results; the test could not tell them apart")
	}

	var ss Session
	// owner is the registry whose world each sender served last; crossed
	// counts the senders that served the other registry's world before.
	owner := map[*core.Sender]int{}
	crossed := 0
	for step, ri := range []int{0, 1, 1, 0, 1, 0, 0} {
		if err := ss.Rebuild(regs[ri], &spec, 0); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		got, err := ss.Run(spec.Seed)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		for i, s := range remySenders(t, &ss) {
			if s.Tree() != trees[ri] {
				t.Fatalf("step %d: sender %d runs the other registry's table", step, i)
			}
			if last, ok := owner[s]; ok && last != ri {
				crossed++
			}
			owner[s] = ri
		}
		if !reflect.DeepEqual(got, fresh[ri]) {
			t.Errorf("step %d (registry %d): the rebuilt session diverges from a new one", step, ri)
		}
	}
	if crossed == 0 {
		t.Error("no sender served both registries' worlds; the sequence exercises no reuse")
	}

	for _, workers := range []int{1, 2} {
		for step, ri := range []int{0, 1, 0, 1} {
			results, err := Runner{Registry: regs[ri], Workers: workers}.RunAll([]Spec{spec})
			if err != nil {
				t.Fatal(err)
			}
			var ss Session
			if err := ss.Rebuild(regs[ri], &spec, 1); err != nil {
				t.Fatal(err)
			}
			rep1, err := ss.Run(DeriveSeed(spec.Seed, 1))
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range results {
				want := fresh[ri]
				if r.Rep == 1 {
					want = rep1
				}
				if !reflect.DeepEqual(r.Res, want) {
					t.Errorf("%d workers, step %d (registry %d), rep %d: the runner diverges from a new session", workers, step, ri, r.Rep)
				}
			}
		}
	}
}
