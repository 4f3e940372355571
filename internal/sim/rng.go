package sim

import (
	"math"
	"math/rand"
)

// RNG is a deterministic pseudo-random number stream. Each stochastic
// component of a simulation (each flow's on/off process, the link-rate
// process, the specimen sampler, ...) owns its own RNG derived from a parent
// seed, so adding or removing one consumer never perturbs the random values
// seen by another. This property is essential for the Remy optimizer, which
// must evaluate candidate actions on byte-identical specimen networks.
type RNG struct {
	// src is math/rand's seeded source, stream-exact but lazily seeded and
	// reseedable in place (rng_source.go); r wraps it so every derived
	// distribution is the standard library's own derivation.
	src rngSource
	r   *rand.Rand
}

// NewRNG returns a new deterministic stream seeded with seed.
func NewRNG(seed int64) *RNG {
	g := &RNG{}
	g.src.Seed(seed)
	g.r = rand.New(&g.src)
	return g
}

// Reseed restarts the stream in place: afterwards g yields exactly what
// NewRNG(seed) would. Long-lived components (sessions, switchers, fault
// states) own one RNG each and reseed it per run instead of allocating.
func (g *RNG) Reseed(seed int64) { g.src.Seed(seed) }

// Split derives a child stream from this one. The child is seeded from the
// parent's sequence combined with the supplied label so that distinct labels
// produce decorrelated streams.
func (g *RNG) Split(label int64) *RNG { return NewRNG(g.SplitSeed(label)) }

// SplitSeed consumes the same draw Split does and returns the child's seed,
// so an existing stream can become that child: child.Reseed(g.SplitSeed(l))
// leaves both streams exactly where child = g.Split(l) would.
func (g *RNG) SplitSeed(label int64) int64 {
	// Mix the label with a draw from the parent using a SplitMix64-style
	// finalizer so nearby labels do not produce correlated children.
	z := uint64(g.r.Int63()) ^ (uint64(label) * 0x9E3779B97F4A7C15)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z & math.MaxInt64)
}

// SplitMix64 is the SplitMix64 output function: a bijective mixer whose
// outputs pass statistical tests even on sequential inputs. Repetition,
// cell, trace and fault seeds are all derived through it, so its values are
// pinned (TestSplitMix64): changing it would move every recorded result.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Float64 returns a uniform random number in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Uniform returns a uniform random number in [lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	if hi <= lo {
		return lo
	}
	return lo + (hi-lo)*g.r.Float64()
}

// UniformInt returns a uniform random integer in [lo, hi] inclusive.
func (g *RNG) UniformInt(lo, hi int) int {
	if hi <= lo {
		return lo
	}
	return lo + g.r.Intn(hi-lo+1)
}

// Exponential returns an exponentially distributed value with the given mean.
func (g *RNG) Exponential(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return g.r.ExpFloat64() * mean
}

// Pareto returns a Pareto-distributed value with scale xm and shape alpha.
// For alpha <= 1 the distribution has no finite mean, matching the ICSI
// flow-length fit used in the paper (Figure 3: xm = 147, alpha = 0.5).
func (g *RNG) Pareto(xm, alpha float64) float64 {
	if xm <= 0 || alpha <= 0 {
		return xm
	}
	u := g.r.Float64()
	// Guard against u == 0 which would produce +Inf.
	if u < 1e-12 {
		u = 1e-12
	}
	return xm / math.Pow(u, 1/alpha)
}

// Normal returns a normally distributed value with the given mean and
// standard deviation.
func (g *RNG) Normal(mean, stddev float64) float64 {
	return mean + stddev*g.r.NormFloat64()
}

// Int63 returns a non-negative 63-bit random integer.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// Intn returns a uniform random integer in [0, n).
func (g *RNG) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	return g.r.Intn(n)
}

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// ExpTime returns an exponentially distributed simulated duration with the
// given mean duration.
func (g *RNG) ExpTime(mean Time) Time {
	if mean <= 0 {
		return 0
	}
	return Time(g.Exponential(float64(mean)))
}

// UniformTime returns a uniformly distributed simulated duration in [lo, hi).
func (g *RNG) UniformTime(lo, hi Time) Time {
	if hi <= lo {
		return lo
	}
	return lo + Time(g.r.Int63n(int64(hi-lo)))
}
