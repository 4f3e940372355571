package sim

import (
	"math/rand"
	"testing"
	"time"
)

// Test files may read the wall clock and range over maps; only globalrand
// applies to them.
func TestSum(t *testing.T) {
	start := time.Now()
	m := map[string]float64{"a": 1, "b": 2}
	for k := range m {
		m[k] *= 2
	}
	if Sum(m) != 6 {
		t.Fatal(time.Since(start))
	}
	_ = rand.Intn(10)
}
