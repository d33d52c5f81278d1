// Package keccak provides the SHA-3 MAC the engines use, computed with
// crypto/sha3 (FIPS-202 SHA3-256).
//
// Counterless memory encryption (Intel MKTME and kin) computes each
// block's MAC with SHA-3 over the data (paper §II-A); Counter-light
// reuses that construction for blocks in counterless mode, adding the
// EncryptionMetadata word as an extra input (paper §IV-C). The same
// MAC binds every ctrblock integrity-tree node and NVM snapshot slot.
package keccak

import (
	"crypto/sha3"
	"encoding/binary"
)

// MAC64 computes a 64-bit MAC as the first 8 bytes, little-endian, of
// SHA3-256(key || data...), the construction the counterless mode
// uses for its per-block integrity check.
//
// It is on the engine's per-read/per-write hot path (the counterless
// MAC and every ctrblock tree-node MAC), so the hash state and digest
// stay on the stack and the call performs no allocation.
func MAC64(key []byte, data ...[]byte) uint64 {
	h := sha3.New256()
	h.Write(key)
	for _, d := range data {
		h.Write(d)
	}
	var sum [32]byte
	h.Sum(sum[:0])
	return binary.LittleEndian.Uint64(sum[:])
}
