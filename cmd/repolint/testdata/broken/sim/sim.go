package sim

// Sum does not type-check: total is a string.
func Sum(xs []int) int {
	total := ""
	for _, x := range xs {
		total += x
	}
	return total
}
