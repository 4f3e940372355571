package golden

import (
	"reflect"
	"testing"

	"repro/internal/harness"
	"repro/internal/scenario"
)

// freshRun builds repetition rep of spec on a new session and runs it once
// with the seed.
func freshRun(t *testing.T, spec scenario.Spec, rep int, seed int64) harness.Result {
	t.Helper()
	var ss scenario.Session
	if err := ss.Rebuild(nil, &spec, rep); err != nil {
		t.Fatalf("%s: build: %v", spec.Name, err)
	}
	res, err := ss.Run(seed)
	if err != nil {
		t.Fatalf("%s: fresh run: %v", spec.Name, err)
	}
	return res
}

// TestSessionReuseMatchesFresh is the warm-start differential: for every
// scheme on every golden topology (dumbbell, cellular trace, stress,
// datacenter/ECN, parking lot, cross traffic, asymmetric reverse, flow
// churn), results from one reused scenario.Session must be deeply equal to
// those of sessions built fresh for each run at the same seeds — including a
// re-run of the first seed after the session has executed a different one,
// which catches any state leaking across runs. This is what licenses the
// campaign and optimizer layers to recycle engines and sessions across
// thousands of repetitions.
func TestSessionReuseMatchesFresh(t *testing.T) {
	for _, set := range DefaultScenarios() {
		for _, c := range set.schemes {
			set, c := set, c
			t.Run(set.Name+"/"+c.scheme, func(t *testing.T) {
				t.Parallel()
				spec := set.build(c)
				seed0 := spec.Seed
				seed1 := scenario.DeriveSeed(seed0, 1)
				fresh0 := freshRun(t, spec, 0, seed0)
				fresh1 := freshRun(t, spec, 0, seed1)

				var ss scenario.Session
				if err := ss.Rebuild(nil, &spec, 0); err != nil {
					t.Fatalf("build: %v", err)
				}
				steps := []struct {
					name string
					seed int64
					want harness.Result
				}{
					{"cold", seed0, fresh0},
					{"warm-new-seed", seed1, fresh1},
					{"warm-replay", seed0, fresh0},
				}
				for _, step := range steps {
					got, err := ss.Run(step.seed)
					if err != nil {
						t.Fatalf("%s: session run: %v", step.name, err)
					}
					if !reflect.DeepEqual(got, step.want) {
						t.Errorf("%s (seed %d): session result diverges from fresh run\n got: %+v\nwant: %+v",
							step.name, step.seed, got, step.want)
					}
				}
			})
		}
	}
}
