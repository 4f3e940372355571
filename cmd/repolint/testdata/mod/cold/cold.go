// Package cold is outside the result-affecting set: detmap and walltime
// stay quiet here.
package cold

import "time"

// Total ranges over a map.
func Total(m map[string]int) (int, time.Time) {
	t := 0
	for _, v := range m {
		t += v
	}
	return t, time.Now()
}
