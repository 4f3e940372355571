package golden

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/harness"
	"repro/internal/scenario"
)

// rebuildWorld is one world of the rebuild chain: its spec (two
// repetitions), whose first repetition the chain builds, with the two results
// a fresh session gives that world — a cold run at seeds[0], then a warm one
// at seeds[1] — and what a new session gives the second repetition cold.
type rebuildWorld struct {
	name  string
	spec  scenario.Spec
	seeds [2]int64
	fresh [2]harness.Result
	cold1 harness.Result
}

// rebuildWorlds returns every world of the golden battery — the dumbbell
// under every scheme (XCP and sfqCoDel included), the cellular trace, the
// stress buffer, the datacenter, the parking lot, cross traffic, the
// asymmetric reverse path, flow churn and the lossy outage — plus 10 Gbps
// worlds under NewReno and under the datacenter RemyCC (whose receivers run
// far enough behind that their window rings' sizes show in the results; see
// netsim.Network.AttachPort) and a one-flow world, each with its fresh
// results.
func rebuildWorlds(t *testing.T) []rebuildWorld {
	t.Helper()
	var specs []scenario.Spec
	for _, set := range DefaultScenarios() {
		for _, c := range set.schemes {
			spec := set.build(c)
			spec.Name = set.Name + "/" + c.scheme
			specs = append(specs, spec)
		}
	}
	tenGbps := func(name string, seed int64, flow scenario.FlowSpec) scenario.Spec {
		return scenario.New(
			scenario.WithName(name),
			scenario.WithLink(10e9),
			scenario.WithQueue("", 1000),
			scenario.WithDuration(0.2),
			scenario.WithSeed(seed),
			scenario.WithFlow(flow),
		)
	}
	dcWorkload := scenario.ByBytesWorkload(scenario.ExponentialDist(20e6), scenario.ExponentialDist(0.1))
	specs = append(specs,
		tenGbps("10gbps/newreno", goldenSeed, scenario.FlowSpec{Scheme: "newreno", Count: 16, RTTMs: 4, Workload: dcWorkload}),
		// At this seed a receiver's window ring, once grown, changes what
		// it acknowledges.
		tenGbps("10gbps/remy-dc", 5, scenario.FlowSpec{Scheme: "remy", RemyCC: remyAsset("remycc_dc.json"), Count: 8, RTTMs: 4, Workload: dcWorkload}),
		scenario.New(
			scenario.WithName("one-flow"),
			scenario.WithLink(4e6),
			scenario.WithDuration(2),
			scenario.WithSeed(goldenSeed),
			scenario.WithFlows(1, "vegas", 80, quickWorkload()),
		),
	)
	worlds := make([]rebuildWorld, len(specs))
	for i, spec := range specs {
		spec.Repetitions = 2
		w := rebuildWorld{name: spec.Name, spec: spec}
		for rep := range w.seeds {
			w.seeds[rep] = scenario.DeriveSeed(spec.Seed, rep)
		}
		var ss scenario.Session
		if err := ss.Rebuild(nil, &w.spec, 0); err != nil {
			t.Fatalf("%s: fresh session: %v", spec.Name, err)
		}
		for rep, seed := range w.seeds {
			var err error
			if w.fresh[rep], err = ss.Run(seed); err != nil {
				t.Fatalf("%s: fresh run: %v", spec.Name, err)
			}
		}
		w.cold1 = freshRun(t, spec, 1, w.seeds[1])
		worlds[i] = w
	}
	return worlds
}

// rebuildOrders returns the orders the chain visits the worlds in: as
// listed, and interleaving the list's two halves backwards, so each world
// follows a different predecessor in each — larger and smaller ones, with
// other queues, faults and churn classes — and parts are both left over and
// missing; and each world twice in a row, so it is rebuilt out of parts its
// own runs grew.
func rebuildOrders(n int) [][]int {
	listed := make([]int, n)
	mixed := make([]int, 0, n)
	twice := make([]int, 0, 2*n)
	for i := range listed {
		listed[i] = i
		twice = append(twice, i, i)
	}
	for i, j := n-1, n/2-1; i >= n/2 || j >= 0; i, j = i-1, j-1 {
		if i >= n/2 {
			mixed = append(mixed, i)
		}
		if j >= 0 {
			mixed = append(mixed, j)
		}
	}
	return [][]int{listed, mixed, twice}
}

// TestRebuiltSessionMatchesFresh is the rebuild differential: one session,
// rebuilt from world to world through every family of the battery in three
// orders, must give exactly the results a fresh session gives each world —
// on its cold run and on a warm one after it — and so must the runner, whose
// workers rebuild their pooled sessions from spec to spec, at 1 and 4
// workers. A part a rebuild re-targets without clearing, or clears wrongly,
// shows up as a divergence here.
//
// The runner gives a repetition what a fresh session would on the worker
// that runs it: the first repetition of a world cold, a later one of a
// rep-invariant spec warm when the same worker ran the one before, and cold
// otherwise. Warm and cold agree everywhere but in the 10 Gbps RemyCC world
// (see netsim.Network.AttachPort), so there, at 4 workers, the second
// repetition may be either.
func TestRebuiltSessionMatchesFresh(t *testing.T) {
	worlds := rebuildWorlds(t)
	for oi, order := range rebuildOrders(len(worlds)) {
		t.Run(fmt.Sprintf("session/order%d", oi), func(t *testing.T) {
			var ss scenario.Session
			for step, wi := range order {
				w := &worlds[wi]
				if err := ss.Rebuild(nil, &w.spec, 0); err != nil {
					t.Fatalf("step %d (%s): build: %v", step, w.name, err)
				}
				for run, seed := range w.seeds {
					got, err := ss.Run(seed)
					if err != nil {
						t.Fatalf("step %d (%s): run %d: %v", step, w.name, run, err)
					}
					if !reflect.DeepEqual(got, w.fresh[run]) {
						t.Errorf("step %d (%s): run %d of the rebuilt session diverges from a fresh one's\n got: %+v\nwant: %+v",
							step, w.name, run, got, w.fresh[run])
					}
				}
			}
		})
	}
	specs := make([]scenario.Spec, len(worlds))
	for i := range worlds {
		specs[i] = worlds[i].spec
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("runner/workers%d", workers), func(t *testing.T) {
			results, err := scenario.Runner{Workers: workers}.RunAll(specs)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range results {
				w := &worlds[r.SpecIndex]
				var want []harness.Result
				switch {
				case r.Rep == 0:
					want = w.fresh[:1]
				case !w.spec.RepInvariant():
					want = []harness.Result{w.cold1}
				case workers == 1:
					want = w.fresh[1:]
				default:
					want = []harness.Result{w.fresh[1], w.cold1}
				}
				if r.Seed != w.seeds[r.Rep] || !slices.ContainsFunc(want, func(res harness.Result) bool { return reflect.DeepEqual(r.Res, res) }) {
					t.Errorf("%s rep %d: runner result diverges from a fresh session's", w.name, r.Rep)
				}
			}
		})
	}
}
