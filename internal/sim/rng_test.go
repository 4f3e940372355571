package sim

import (
	"math"
	"math/rand"
	"testing"
)

// refSplit is RNG.Split written against the standard library's own source.
func refSplit(parent *rand.Rand, label int64) *rand.Rand {
	z := uint64(parent.Int63()) ^ (uint64(label) * 0x9E3779B97F4A7C15)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return rand.New(rand.NewSource(int64(z & math.MaxInt64)))
}

// rngPair is a sim.RNG and the math/rand generator it must shadow.
type rngPair struct {
	got *RNG
	ref *rand.Rand
}

func newRNGPair(seed int64) rngPair {
	return rngPair{got: NewRNG(seed), ref: rand.New(rand.NewSource(seed))}
}

// runRNGProgram decodes ops into draws, in-place reseeds and splits, applies
// each to both generators of the pair and fails on the first value that
// differs. One op is one byte (kind = b % 8) plus, for some kinds, an operand
// byte; a program that runs out of bytes mid-op stops.
func runRNGProgram(t *testing.T, seed int64, ops []byte) {
	t.Helper()
	p := newRNGPair(seed)
	operand := func(i *int) (int, bool) {
		*i++
		if *i >= len(ops) {
			return 0, false
		}
		return int(ops[*i]), true
	}
	for i := 0; i < len(ops); i++ {
		switch kind := ops[i] % 8; kind {
		case 0:
			if g, w := p.got.Int63(), p.ref.Int63(); g != w {
				t.Fatalf("seed %d op %d Int63: got %d, want %d", seed, i, g, w)
			}
		case 1:
			if g, w := p.got.Float64(), p.ref.Float64(); g != w {
				t.Fatalf("seed %d op %d Float64: got %v, want %v", seed, i, g, w)
			}
		case 2:
			if g, w := p.got.Exponential(1), p.ref.ExpFloat64(); g != w {
				t.Fatalf("seed %d op %d ExpFloat64: got %v, want %v", seed, i, g, w)
			}
		case 3:
			if g, w := p.got.Normal(0, 1), p.ref.NormFloat64(); g != w {
				t.Fatalf("seed %d op %d NormFloat64: got %v, want %v", seed, i, g, w)
			}
		case 4:
			n, ok := operand(&i)
			if !ok {
				return
			}
			if g, w := p.got.Intn(n+1), p.ref.Intn(n+1); g != w {
				t.Fatalf("seed %d op %d Intn(%d): got %d, want %d", seed, i, n+1, g, w)
			}
		case 5:
			n, ok := operand(&i)
			if !ok {
				return
			}
			g, w := p.got.Perm(n%32), p.ref.Perm(n%32)
			for j := range w {
				if g[j] != w[j] {
					t.Fatalf("seed %d op %d Perm(%d): got %v, want %v", seed, i, n%32, g, w)
				}
			}
		case 6:
			// Reseed in place, after however many draws came before. Small
			// operands pick the edge seeds; the rest derive from the stream.
			b, ok := operand(&i)
			if !ok {
				return
			}
			next := p.ref.Int63() - int64(b)<<55
			if g := p.got.Int63(); g != next+int64(b)<<55 {
				t.Fatalf("seed %d op %d Int63 before reseed: got %d", seed, i, g)
			}
			if b < len(edgeSeeds) {
				next = edgeSeeds[b]
			}
			p.got.Reseed(next)
			p.ref = rand.New(rand.NewSource(next))
		case 7:
			label, ok := operand(&i)
			if !ok {
				return
			}
			child := rngPair{got: p.got.Split(int64(label)), ref: refSplit(p.ref, int64(label))}
			if label%2 == 0 {
				// Descend into the child; odd labels keep drawing from the
				// parent, whose stream the split advanced by one draw.
				p = child
			} else if g, w := child.got.Int63(), child.ref.Int63(); g != w {
				t.Fatalf("seed %d op %d Split(%d) child: got %d, want %d", seed, i, label, g, w)
			}
		}
	}
}

// edgeSeeds are the seeds math/rand's reduction mod 2³¹−1 treats specially:
// zero and its aliases (replaced by 89482311), the sign wrap, and the int64
// extremes.
var edgeSeeds = []int64{
	0, 1, -1, 1<<31 - 1, -(1<<31 - 1), 1 << 31, 89482311, math.MinInt64, math.MaxInt64,
}

// TestRNGMatchesMathRand holds sim.RNG to the stream of
// rand.New(rand.NewSource(seed)), bit for bit, through every draw kind the
// repo uses. Each program makes at least 2 000 source draws, so the lazily
// seeded 607-word register wraps three times.
func TestRNGMatchesMathRand(t *testing.T) {
	gen := rand.New(rand.NewSource(20130812))
	seeds := append([]int64(nil), edgeSeeds...)
	for i := 0; i < 200; i++ {
		seeds = append(seeds, int64(gen.Uint64()))
	}

	t.Run("draws", func(t *testing.T) {
		ops := make([]byte, 3000)
		for _, seed := range seeds {
			for i := range ops {
				ops[i] = byte(gen.Intn(6)) // draw kinds only; operands are draws too
			}
			runRNGProgram(t, seed, ops)
		}
	})

	// Reseeding after any amount of consumption — in particular around the
	// 273- and 334-draw marks where the lazy fill changes regime, and past a
	// full wrap — must leave no word of the previous stream behind.
	t.Run("reseed", func(t *testing.T) {
		for _, consumed := range []int{0, 1, 5, 272, 273, 274, 333, 334, 335, 606, 607, 608, 2000} {
			for _, seed := range seeds[:20] {
				g := NewRNG(seed ^ 0x5eed)
				for i := 0; i < consumed; i++ {
					g.Int63()
				}
				g.Reseed(seed)
				ref := rand.New(rand.NewSource(seed))
				for i := 0; i < 2000; i++ {
					if got, want := g.Int63(), ref.Int63(); got != want {
						t.Fatalf("seed %d reseeded after %d draws: draw %d got %d, want %d", seed, consumed, i, got, want)
					}
				}
			}
		}
	})

	t.Run("mixed", func(t *testing.T) {
		ops := make([]byte, 4000)
		for _, seed := range seeds[:40] {
			for i := range ops {
				ops[i] = byte(gen.Intn(256))
			}
			runRNGProgram(t, seed, ops)
		}
	})

	// A chain of splits, each child reseeding a long-lived stream the way
	// scenario.Session does, tracks a chain of fresh Split children.
	t.Run("split chain", func(t *testing.T) {
		for _, seed := range seeds[:20] {
			p := newRNGPair(seed)
			owned := NewRNG(0)
			for depth := int64(1); depth <= 8; depth++ {
				owned.Reseed(p.got.SplitSeed(depth))
				ref := refSplit(p.ref, depth)
				for i := 0; i < 700; i++ {
					if got, want := owned.Float64(), ref.Float64(); got != want {
						t.Fatalf("seed %d depth %d draw %d: got %v, want %v", seed, depth, i, got, want)
					}
				}
				if got, want := p.got.Int63(), p.ref.Int63(); got != want {
					t.Fatalf("seed %d depth %d parent after split: got %d, want %d", seed, depth, got, want)
				}
			}
		}
	})
}

// FuzzRNGVsMathRand drives sim.RNG and math/rand in lockstep through
// byte-decoded programs of draws, in-place reseeds and splits.
func FuzzRNGVsMathRand(f *testing.F) {
	f.Add(int64(0), []byte{0, 1, 2, 3, 4, 9, 5, 17, 6, 0, 0, 7, 2, 0, 7, 3, 0})
	f.Add(int64(1<<31-1), []byte{6, 3, 0, 0, 6, 200, 1, 2, 3})
	f.Add(int64(math.MinInt64), []byte{5, 31, 5, 31, 5, 31, 6, 8, 5, 31})
	long := make([]byte, 700)
	f.Add(int64(42), append(long, 6, 77, 0, 0, 0))
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 1<<14 {
			ops = ops[:1<<14]
		}
		runRNGProgram(t, seed, ops)
	})
}
