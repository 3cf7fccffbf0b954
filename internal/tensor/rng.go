package tensor

import "math"

// RNG is a small deterministic xorshift64* pseudo-random generator used to
// create reproducible model weights and noise. It is not safe for concurrent
// use; each goroutine should own its RNG.
type RNG struct {
	state uint64
	// Box-Muller spare value.
	spare    float64
	hasSpare bool
}

// NewRNG returns a generator seeded with seed. A zero seed is remapped to a
// fixed non-zero constant since xorshift cannot escape the zero state.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &RNG{state: seed}
}

// Uint64 returns the next pseudo-random 64-bit value.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("tensor: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a standard normal variate via Box-Muller.
func (r *RNG) NormFloat64() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	mul := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * mul
	r.hasSpare = true
	return u * mul
}

// ExpFloat64 returns an exponential variate with mean 1.
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Randn returns an r×c matrix of N(0, std²) values.
func Randn(rng *RNG, rows, cols int, std float64) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64() * std)
	}
	return m
}
