package aes

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// TestBackendsBitExact drives every registered backend over random
// keys and blocks and requires byte-identical output to the textbook
// ref backend in both directions: FIPS-197 AES is AES, whichever
// implementation computes it.
func TestBackendsBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, keyLen := range []int{16, 24, 32} {
		for trial := 0; trial < 100; trial++ {
			key := make([]byte, keyLen)
			rng.Read(key)
			ref, err := NewBackend(BackendRef, key)
			if err != nil {
				t.Fatal(err)
			}
			var pt [BlockSize]byte
			rng.Read(pt[:])
			var want, wantDec [BlockSize]byte
			ref.Encrypt(want[:], pt[:])
			ref.Decrypt(wantDec[:], pt[:])
			for _, name := range BackendNames() {
				b, err := NewBackend(name, key)
				if err != nil {
					t.Fatalf("NewBackend(%q): %v", name, err)
				}
				var ct [BlockSize]byte
				b.Encrypt(ct[:], pt[:])
				if ct != want {
					t.Fatalf("%s: keyLen=%d Encrypt diverges from ref", name, keyLen)
				}
				var back [BlockSize]byte
				b.Decrypt(back[:], ct[:])
				if back != pt {
					t.Fatalf("%s: keyLen=%d Decrypt does not invert Encrypt", name, keyLen)
				}
				var dec [BlockSize]byte
				b.Decrypt(dec[:], pt[:])
				if dec != wantDec {
					t.Fatalf("%s: keyLen=%d Decrypt diverges from ref", name, keyLen)
				}
			}
		}
	}
}

// TestBackendBatchMatchesSingle checks EncryptBlocks/DecryptBlocks
// against a loop of single-block calls, including the dst == src
// aliasing the contract allows.
func TestBackendBatchMatchesSingle(t *testing.T) {
	key := make([]byte, 16)
	for i := range key {
		key[i] = byte(i * 7)
	}
	src := make([]byte, 6*BlockSize)
	for i := range src {
		src[i] = byte(i * 31)
	}
	for _, name := range BackendNames() {
		b, err := NewBackend(name, key)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]byte, len(src))
		for i := 0; i < len(src); i += BlockSize {
			b.Encrypt(want[i:], src[i:])
		}
		got := make([]byte, len(src))
		b.EncryptBlocks(got, src)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: EncryptBlocks != per-block Encrypt", name)
		}
		// In-place batch.
		inplace := append([]byte(nil), src...)
		b.EncryptBlocks(inplace, inplace)
		if !bytes.Equal(inplace, want) {
			t.Fatalf("%s: in-place EncryptBlocks diverges", name)
		}
		b.DecryptBlocks(inplace, inplace)
		if !bytes.Equal(inplace, src) {
			t.Fatalf("%s: DecryptBlocks does not invert EncryptBlocks", name)
		}
		if b.Rounds() != 10 {
			t.Fatalf("%s: Rounds() = %d for AES-128, want 10", name, b.Rounds())
		}
	}
}

// TestBackendRegistry pins the registry surface: the two names, the
// stdlib default, and loud errors for unknown names (a CL_CIPHER typo,
// or the retired "ttable") and bad keys.
func TestBackendRegistry(t *testing.T) {
	if got, want := fmt.Sprint(BackendNames()), fmt.Sprint([]string{BackendRef, BackendStdlib}); got != want {
		t.Fatalf("BackendNames() = %v, want %v", got, want)
	}
	for _, name := range []string{"nope", "ttable", "Stdlib"} {
		_, err := NewBackend(name, make([]byte, 16))
		if err == nil || !strings.Contains(err.Error(), "unknown cipher backend") {
			t.Fatalf("NewBackend(%q) error = %v, want unknown cipher backend", name, err)
		}
	}
	for _, name := range BackendNames() {
		if _, err := NewBackend(name, make([]byte, 7)); err == nil {
			t.Fatalf("%s: 7-byte key did not error", name)
		}
	}
	if os.Getenv("CL_CIPHER") == "" && DefaultBackend() != BackendStdlib {
		t.Fatalf("DefaultBackend() = %q with CL_CIPHER unset, want %q", DefaultBackend(), BackendStdlib)
	}
	b, err := NewBackend("", make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewBackend(DefaultBackend(), make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%T", b) != fmt.Sprintf("%T", want) {
		t.Fatalf("empty name resolved to %T, want the default's %T", b, want)
	}
}
