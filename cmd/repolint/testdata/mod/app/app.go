// Package app uses sim from outside the result-affecting set.
package app

import (
	"math/rand"

	"tmplint/sim"
)

// Jitter draws from process-global math/rand state.
func Jitter(m map[string]float64) float64 {
	return sim.Sum(m) + rand.Float64()
}
