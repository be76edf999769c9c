// Package rng provides deterministic, hash-based random variate generation.
//
// The simulator never materializes per-cell state for the full 4 GiB device.
// Instead, every per-cell quantity (RowHammer threshold, retention time,
// cell orientation) is a pure function of a seed and the cell coordinates,
// computed on demand with the SplitMix64 finalizer. Two devices built from
// the same seed are bit-identical; changing the seed yields an independent
// "chip instance", mirroring chip-to-chip variation.
package rng

import "math"

// splitMix64Gamma is the Weyl-sequence increment from Steele et al.,
// "Fast Splittable Pseudorandom Number Generators" (OOPSLA 2014).
const splitMix64Gamma = 0x9E3779B97F4A7C15

// Mix64 applies the SplitMix64 finalizer to x, producing a well-distributed
// 64-bit value. It is the core primitive behind every draw in this package.
func Mix64(x uint64) uint64 {
	x += splitMix64Gamma
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Combine folds a sequence of values into a single hash. It is used to key
// draws by coordinates, e.g. Combine(seed, channel, bank, row, bit).
func Combine(vs ...uint64) uint64 {
	h := uint64(0x243F6A8885A308D3) // pi fractional bits; arbitrary non-zero start
	for _, v := range vs {
		h = Mix64(h ^ v)
	}
	return h
}

// Uniform01 maps a hash to the half-open interval [0, 1).
func Uniform01(h uint64) float64 {
	// Use the top 53 bits for a dyadic rational in [0,1).
	return float64(h>>11) / (1 << 53)
}

// Bool maps a hash to true with probability p.
func Bool(h uint64, p float64) bool {
	return Uniform01(h) < p
}

// Normal maps a hash to a standard normal variate using the inverse CDF.
// A single hash input keeps per-cell evaluation cheap and allocation-free.
func Normal(h uint64) float64 {
	u := Uniform01(h)
	// Clamp away from 0 and 1 so the inverse CDF stays finite.
	if u < 1e-12 {
		u = 1e-12
	} else if u > 1-1e-12 {
		u = 1 - 1e-12
	}
	return normInv(u)
}

// LogNormal maps a hash to exp(mu + sigma*Z) with Z standard normal.
func LogNormal(h uint64, mu, sigma float64) float64 {
	return math.Exp(mu + sigma*Normal(h))
}

// normInv is Acklam's rational approximation to the inverse of the standard
// normal CDF. Maximum relative error ~1.15e-9, far below what the fault
// model's calibration tolerances require.
func normInv(p float64) float64 {
	const (
		pLow  = 0.02425
		pHigh = 1 - pLow
	)
	var q, r float64
	switch {
	case p < pLow:
		q = math.Sqrt(-2 * math.Log(p))
		return (((((_c[0]*q+_c[1])*q+_c[2])*q+_c[3])*q+_c[4])*q + _c[5]) /
			((((_d[0]*q+_d[1])*q+_d[2])*q+_d[3])*q + 1)
	case p <= pHigh:
		q = p - 0.5
		r = q * q
		return (((((_a[0]*r+_a[1])*r+_a[2])*r+_a[3])*r+_a[4])*r + _a[5]) * q /
			(((((_b[0]*r+_b[1])*r+_b[2])*r+_b[3])*r+_b[4])*r + 1)
	default:
		q = math.Sqrt(-2 * math.Log(1-p))
		return -(((((_c[0]*q+_c[1])*q+_c[2])*q+_c[3])*q+_c[4])*q + _c[5]) /
			((((_d[0]*q+_d[1])*q+_d[2])*q+_d[3])*q + 1)
	}
}

var (
	_a = [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02, 1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	_b = [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02, 6.680131188771972e+01, -1.328068155288572e+01}
	_c = [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00, -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	_d = [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00, 3.754408661907416e+00}
)

// Stream is a small sequential PRNG for places that want a stream of draws
// rather than coordinate-keyed hashing (e.g. shuffling probe orders).
// The zero value is a valid stream seeded with 0.
type Stream struct {
	state uint64
}

// NewStream returns a sequential generator seeded with seed.
func NewStream(seed uint64) *Stream {
	return &Stream{state: seed}
}

// Next returns the next 64-bit value in the stream.
func (s *Stream) Next() uint64 {
	s.state += splitMix64Gamma
	return Mix64(s.state)
}

// Float64 returns the next variate in [0, 1).
func (s *Stream) Float64() float64 {
	return Uniform01(s.Next())
}

// Intn returns a uniformly distributed integer in [0, n). It panics if
// n <= 0, matching math/rand semantics.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	return int(s.Next() % uint64(n))
}

// Shuffle permutes xs in place with the Fisher-Yates algorithm.
func (s *Stream) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}
