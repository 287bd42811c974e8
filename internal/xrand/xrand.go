// Package xrand provides small, fast, deterministic pseudo-random number
// generators used throughout the repository: for choosing skiplist node
// levels (a geometric distribution, as in Pugh's original paper), for
// generating benchmark workloads, and for the randomized collision layers of
// the combining funnel.
//
// The generators are deliberately not cryptographic. Determinism matters
// here for the same reason it mattered to the paper's Proteus runs: an
// experiment rerun with the same seed must produce the same sequence of
// operations, so that latency differences between data structures are
// attributable to the structures and not to workload noise.
package xrand

import "math/bits"

// SplitMix64 is the splitmix64 generator of Steele, Lea and Flood. It is
// used to derive independent seeds for per-processor generators from a
// single experiment seed.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Next returns the next value in the sequence.
func (s *SplitMix64) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Rand is a xoshiro256** generator: tiny state, excellent statistical
// quality, and far cheaper than math/rand's locked global source. It is not
// safe for concurrent use; give each goroutine (or virtual processor) its
// own instance via NewRand.
type Rand struct {
	s [4]uint64
}

// NewRand returns a generator whose state is derived from seed via
// SplitMix64, as recommended by the xoshiro authors. A zero seed is valid.
func NewRand(seed uint64) *Rand {
	r := Seeded(seed)
	return &r
}

// Seeded is NewRand as a value: the same state, hence the same sequence, for
// a caller that draws a few values and drops the generator (a skiplist level
// draw per insert) and must not pay a heap allocation for it.
func Seeded(seed uint64) Rand {
	sm := SplitMix64{state: seed}
	var r Rand
	for i := range r.s {
		r.s[i] = sm.Next()
	}
	// xoshiro requires a nonzero state; SplitMix64 makes all-zero output
	// astronomically unlikely, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// Uint64 returns a uniformly distributed 64-bit value.
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := bits.RotateLeft64(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}

// Int63 returns a non-negative int64.
func (r *Rand) Int63() int64 {
	return int64(r.Uint64() >> 1)
}

// Intn returns a uniformly distributed value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniformly distributed value in [0, n) using Lemire's
// multiply-shift rejection method. It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with zero n")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Float64 returns a uniformly distributed value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	return r.Float64() < p
}

// GeometricLevel draws from the geometric distribution used for skiplist
// node heights: it returns the smallest level l >= 1 such that l coin
// flips with success probability p did not all succeed, capped at max.
// With p = 0.25 (Pugh's recommendation) the expected number of pointers per
// node is 1/(1-p) = 1.33.
func (r *Rand) GeometricLevel(p float64, max int) int {
	l := 1
	for l < max && r.Float64() < p {
		l++
	}
	return l
}
