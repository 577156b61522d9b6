// Package xrand provides the deterministic random-number generation used by
// every stochastic component of the simulator (workload access streams, the
// fragmenter, sampled promotion scans). All randomness in the repository
// flows from explicit seeds through this package so that every experiment is
// exactly reproducible.
//
// The core generator is splitmix64 (Steele et al.), which is tiny, fast,
// passes BigCrush when used as a stream, and — unlike math/rand's global
// functions — carries no hidden global state.
package xrand

import "math"

// Rand is a deterministic pseudo-random number generator.
// The zero value is a valid generator seeded with 0.
type Rand struct {
	state uint64
}

// New returns a generator seeded with seed.
func New(seed uint64) *Rand { return &Rand{state: seed} }

// Uint64 returns the next 64 pseudo-random bits (splitmix64).
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64n returns a pseudo-random number in [0, n). It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n called with n == 0")
	}
	// Lemire's nearly-divisionless bounded generation would be overkill here;
	// modulo bias is negligible for the ranges the simulator uses (< 2^40),
	// but reject the biased tail anyway so property tests on uniformity hold.
	max := math.MaxUint64 - math.MaxUint64%n
	for {
		v := r.Uint64()
		if v < max {
			return v % n
		}
	}
}

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.Float64() < p }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
