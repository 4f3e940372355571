// Package hot is a hotalloc fixture: only functions annotated
// //repo:hotpath are policed.
package hot

import "fmt"

// deliver is the annotated hot function with one of each violation.
//
//repo:hotpath fixture hot path
func deliver(xs []int, sink func(func())) []int {
	sink(func() {})    // want `closure literal in //repo:hotpath function allocates`
	fmt.Println(xs)    // want `fmt\.Println in //repo:hotpath function allocates`
	xs = append(xs, 1) // want `append in //repo:hotpath function may grow the backing array`
	return xs
}

// preallocated appends strictly into make(..., cap) capacity: clean.
//
//repo:hotpath fixture hot path
func preallocated(n int) []int {
	out := make([]int, 0, 16)
	for i := 0; i < n; i++ {
		out = append(out, i)
	}
	return out
}

// suppressedHot carries reasons for its cold inner paths.
//
//repo:hotpath fixture hot path
func suppressedHot(xs []int) []int {
	//lint:ignore hotalloc fixture demonstrates a sanctioned cold-path append
	xs = append(xs, 1)
	return xs
}

// timer reschedules its own tick, as a periodic controller does.
type timer struct {
	tick     func(int)
	schedule func(func(int))
	ticker   interface{ Tick(int) }
}

func (t *timer) onTick(now int) {}

// reschedule passes method values, which allocate, and calls methods, which
// do not.
//
//repo:hotpath fixture hot path
func (t *timer) reschedule(now int) {
	t.schedule(t.onTick)      // want `method value onTick in //repo:hotpath function allocates a closure`
	t.schedule(t.ticker.Tick) // want `method value Tick in //repo:hotpath function allocates a closure`
	t.schedule(t.tick)        // a bound func field: clean
	expr := (*timer).onTick   // a method expression: clean
	expr(t, now)
	t.onTick(now)
	(t.onTick)(now)
	t.ticker.Tick(now)
}

// cold is unannotated: hotalloc ignores it entirely.
func cold(sink func(func()), t *timer) {
	sink(func() {})
	fmt.Println("cold path")
	var xs []int
	_ = append(xs, 1)
	t.tick = t.onTick
}
