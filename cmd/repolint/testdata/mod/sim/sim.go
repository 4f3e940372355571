// Package sim is result-affecting by name, so detmap and walltime police it.
package sim

import (
	"fmt"
	"sort"
	"time"
)

// Sum ranges over a map in an order-sensitive way.
func Sum(m map[string]float64) float64 {
	t := 0.0
	for _, v := range m {
		t += v
	}
	return t
}

// Keys is the collect-then-sort idiom detmap allows.
func Keys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Count carries a valid suppression.
func Count(m map[string]float64) int {
	n := 0
	//lint:ignore detmap counting is order-insensitive
	for range m {
		n++
	}
	return n
}

// Max carries a malformed directive, which suppresses nothing.
func Max(m map[string]float64) float64 {
	best := 0.0
	//lint:ignore detmap
	for _, v := range m {
		best = max(best, v)
	}
	return best
}

// Stamp reads the wall clock.
func Stamp() int64 {
	return time.Now().UnixNano()
}

// Push is on the hot path.
//
//repo:hotpath
func Push(q []int, v int) ([]int, string) {
	less := func(a, b int) bool { return a < b }
	if less(v, 0) {
		return q, fmt.Sprint(v)
	}
	return append(q, v), ""
}
