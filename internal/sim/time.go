// Package sim provides the deterministic discrete-event simulation engine
// that underpins every experiment in this repository: a simulated clock, an
// event scheduler, and seeded random-number streams.
//
// The engine is intentionally minimal. Everything above it (links, queues,
// senders, workloads) is expressed as callbacks scheduled at simulated
// times, which keeps the core easy to reason about and, critically for the
// Remy optimizer, exactly reproducible: two evaluations with the same seeds
// schedule the same events in the same order.
package sim

import "fmt"

// Time is a simulated timestamp measured in integer microseconds since the
// start of the simulation. Using an integer representation (rather than
// float64 seconds) makes event ordering exact and simulations bit-for-bit
// reproducible, which the optimizer relies on when comparing candidate
// actions on identical specimen networks.
type Time int64

// Duration constants expressed in simulated Time units.
const (
	Microsecond Time = 1
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
	Minute      Time = 60 * Second
)

// MaxTime is the largest representable simulated time. It is used as a
// sentinel meaning "never".
const MaxTime Time = 1<<63 - 1

// Seconds returns the time as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis returns the time as a floating-point number of milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// Micros returns the time as an integer number of microseconds.
func (t Time) Micros() int64 { return int64(t) }

// String implements fmt.Stringer, rendering the time in seconds.
func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

// FromSeconds converts a float64 number of seconds into a Time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// FromMillis converts a float64 number of milliseconds into a Time.
func FromMillis(ms float64) Time { return Time(ms * float64(Millisecond)) }

// MinTime returns the smaller of a and b.
func MinTime(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}

// MaxOf returns the larger of a and b.
func MaxOf(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}
