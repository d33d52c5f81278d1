package aes

// The backend seam: every consumer of AES in this repository (the XTS
// and CTR engines in internal/cipher, and through them the functional
// engine and the mcpool shards) reaches the block cipher through the
// Backend interface instead of a concrete implementation. Two backends
// register here:
//
//   - "stdlib": crypto/aes from the standard library, which dispatches
//     to AES-NI/NEON on real hardware — the hardware-class pad
//     generator the paper's latency model assumes, and the default.
//   - "ref": the textbook round-by-round cipher (encryptSlow), the
//     bit-exactness anchor the fast path is compared against. The
//     differential oracle in internal/check always recomputes through
//     this backend regardless of what the engine under test runs.
//
// Both are bit-exact (FIPS-197 AES is AES); the conformance goldens,
// FuzzCipherBackends, and the check harness's independent
// recomputation enforce that continuously.

import (
	stdaes "crypto/aes"
	stdcipher "crypto/cipher"
	"fmt"
	"os"
	"sort"
)

// Backend is a block cipher with an expanded key schedule. Encrypt and
// Decrypt process exactly one 16-byte block; EncryptBlocks and
// DecryptBlocks process len/16 independent blocks in one call, the
// entry point batched pad generation rides on. dst and src must be
// multiples of BlockSize and may alias exactly (dst == src) but not
// partially overlap. Implementations never retain dst or src.
type Backend interface {
	// Rounds reports the AES round count (10/12/14), the latency
	// model's cipher-delay input.
	Rounds() int
	Encrypt(dst, src []byte)
	Decrypt(dst, src []byte)
	EncryptBlocks(dst, src []byte)
	DecryptBlocks(dst, src []byte)
}

// Registered backend names.
const (
	BackendRef    = "ref"
	BackendStdlib = "stdlib"
)

// builders maps a backend name to its constructor. The map is written
// only by this file's init; lookups are read-only afterwards.
var builders = map[string]func(key []byte) (Backend, error){
	BackendRef: func(key []byte) (Backend, error) {
		c, err := New(key)
		if err != nil {
			return nil, err
		}
		return refBackend{c}, nil
	},
	BackendStdlib: func(key []byte) (Backend, error) {
		b, err := stdaes.NewCipher(key)
		if err != nil {
			return nil, fmt.Errorf("aes: %w", err)
		}
		return stdBackend{b: b, rounds: 6 + len(key)/4}, nil
	},
}

// defaultBackend is the process-wide backend used when a caller
// passes an empty name: the CL_CIPHER environment variable, read once
// at startup, else "stdlib".
var defaultBackend = func() string {
	if v := os.Getenv("CL_CIPHER"); v != "" {
		return v
	}
	return BackendStdlib
}()

// DefaultBackend returns the process-wide default backend
// name. The value is reported verbatim: an unknown name (e.g. a typo
// in CL_CIPHER) surfaces as a loud NewBackend error at engine
// construction instead of a silent fallback.
func DefaultBackend() string { return defaultBackend }

// BackendNames lists the registered backends, sorted.
func BackendNames() []string {
	names := make([]string, 0, len(builders))
	for n := range builders {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// NewBackend builds the named backend for a 16, 24, or 32 byte key.
// An empty name selects the process default (DefaultBackend).
func NewBackend(name string, key []byte) (Backend, error) {
	if name == "" {
		name = defaultBackend
	}
	build, ok := builders[name]
	if !ok {
		return nil, fmt.Errorf("aes: unknown cipher backend %q (have %v)", name, BackendNames())
	}
	return build(key)
}

// checkBlocks validates a batch call's geometry once, so the per-block
// loops can index without re-checking.
func checkBlocks(dst, src []byte) int {
	if len(src)%BlockSize != 0 || len(dst) < len(src) {
		panic("aes: batch length not a multiple of the block size")
	}
	return len(src) / BlockSize
}

// refBackend dispatches to the textbook cipher.
type refBackend struct{ c *Cipher }

func (b refBackend) Rounds() int             { return b.c.rounds }
func (b refBackend) Encrypt(dst, src []byte) { b.c.encryptSlow(dst, src) }
func (b refBackend) Decrypt(dst, src []byte) { b.c.decryptSlow(dst, src) }

func (b refBackend) EncryptBlocks(dst, src []byte) {
	n := checkBlocks(dst, src)
	for i := 0; i < n; i++ {
		b.c.encryptSlow(dst[i*BlockSize:], src[i*BlockSize:])
	}
}

func (b refBackend) DecryptBlocks(dst, src []byte) {
	n := checkBlocks(dst, src)
	for i := 0; i < n; i++ {
		b.c.decryptSlow(dst[i*BlockSize:], src[i*BlockSize:])
	}
}

// stdBackend wraps crypto/aes, which uses the hardware AES
// instructions where the platform has them.
type stdBackend struct {
	b      stdcipher.Block
	rounds int
}

func (b stdBackend) Rounds() int             { return b.rounds }
func (b stdBackend) Encrypt(dst, src []byte) { b.b.Encrypt(dst, src) }
func (b stdBackend) Decrypt(dst, src []byte) { b.b.Decrypt(dst, src) }

func (b stdBackend) EncryptBlocks(dst, src []byte) {
	n := checkBlocks(dst, src)
	for i := 0; i < n; i++ {
		b.b.Encrypt(dst[i*BlockSize:(i+1)*BlockSize], src[i*BlockSize:(i+1)*BlockSize])
	}
}

func (b stdBackend) DecryptBlocks(dst, src []byte) {
	n := checkBlocks(dst, src)
	for i := 0; i < n; i++ {
		b.b.Decrypt(dst[i*BlockSize:(i+1)*BlockSize], src[i*BlockSize:(i+1)*BlockSize])
	}
}
