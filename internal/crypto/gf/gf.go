// Package gf implements carry-less multiplication and arithmetic in
// GF(2^64), used by the counter-mode MAC construction.
//
// Under counter mode (paper §II-B, after SGX1's MEE), each block's MAC
// is the bitwise XOR of a truncated one-time pad with a truncated
// Galois-field dot product of the plaintext words and secret keys:
//
//	MAC = trunc(OTP) ⊕ Σ_i (D_i ⊗ K_i)   over GF(2^64)
//
// This keeps the MAC unforgeable without knowing the key while letting
// the expensive AES part (the OTP) be computed from the counter alone.
package gf

import "math/bits"

// ClMul64 returns the 128-bit carry-less product of a and b as
// (hi, lo).
func ClMul64(a, b uint64) (hi, lo uint64) {
	for i := 0; i < 64; i++ {
		if b&(1<<i) != 0 {
			lo ^= a << i
			if i != 0 {
				hi ^= a >> (64 - i)
			}
		}
	}
	return hi, lo
}

// Mul multiplies two elements of GF(2^64) modulo
// x^64 + x^4 + x^3 + x + 1.
func Mul(a, b uint64) uint64 {
	hi, lo := ClMul64(a, b)
	// Reduce the high 64 bits: x^64 ≡ x^4 + x^3 + x + 1, so hi·x^64
	// folds to hi ^ hi<<1 ^ hi<<3 ^ hi<<4, whose overflow past bit 63
	// is hi>>63 ^ hi>>61 ^ hi>>60. That overflow is below 2^4, so a
	// second fold carries nothing out.
	return lo ^ fold(hi) ^ fold(hi>>63^hi>>61^hi>>60)
}

// fold returns the low 64 bits of h·(x^4 + x^3 + x + 1).
func fold(h uint64) uint64 { return h ^ h<<1 ^ h<<3 ^ h<<4 }

// Add adds two field elements (XOR).
func Add(a, b uint64) uint64 { return a ^ b }

// Pow raises a to the k-th power in GF(2^64) by square-and-multiply.
func Pow(a uint64, k uint64) uint64 {
	result := uint64(1)
	base := a
	for k > 0 {
		if k&1 == 1 {
			result = Mul(result, base)
		}
		base = Mul(base, base)
		k >>= 1
	}
	return result
}

// DotProduct computes Σ_i data[i] ⊗ keys[i] over GF(2^64). The two
// slices must have equal length. This models the MAC dot product whose
// eight partial products are computed in parallel in hardware
// (paper §IV-D, "the eight products summed together ... can be
// calculated in parallel").
func DotProduct(data, keys []uint64) uint64 {
	if len(data) != len(keys) {
		panic("gf: dot product length mismatch")
	}
	var acc uint64
	for i := range data {
		acc ^= Mul(data[i], keys[i])
	}
	return acc
}

// KeySchedule derives n MAC keys from a single secret as successive
// powers k, k^2, k^3, ... (a standard universal-hash key schedule; any
// nonzero secret yields nonzero keys).
func KeySchedule(secret uint64, n int) []uint64 {
	if secret == 0 {
		secret = 1 // zero would make the MAC ignore all data words
	}
	keys := make([]uint64, n)
	cur := uint64(1)
	for i := 0; i < n; i++ {
		cur = Mul(cur, secret)
		keys[i] = cur
	}
	return keys
}

// Weight returns the Hamming weight of a field element, used by tests
// to sanity-check diffusion properties.
func Weight(a uint64) int { return bits.OnesCount64(a) }
