package sim_test

import (
	"math/rand"
	"testing"

	"tmplint/sim"
)

func TestKeys(t *testing.T) {
	seeded := rand.New(rand.NewSource(1))
	m := map[string]float64{"x": seeded.Float64(), "y": rand.Float64()}
	if len(sim.Keys(m)) != 2 {
		t.Fatal("keys")
	}
}
